"""Working memory of a trial's whole-matrix passes at n = 1e6 (an
11-column, 84 MiB matrix): generation, the bounds check and the DGM
release walk the matrix in row chunks, so none holds a second
matrix-sized temporary.  The DGM release streams its published matrix
into the normal equations and holds no n-row array at all."""

import tracemalloc

import pytest

from mpdp.data_model import partition_evenly, validate_bounds
from mpdp.dgm import dgm_release
from mpdp.dp_core import calibrate
from mpdp.streams import RandomStream
from mpdp.synthetic import gen_dataset, gen_ground_truth

N = 10**6
W_STAR = gen_ground_truth(10, RandomStream(40))
PARTITION = partition_evenly(11, 6)


def traced_peak(fn, *args):
    """(result, peak bytes that tracemalloc saw during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def data():
    return gen_dataset(N, W_STAR, RandomStream(41))


class TestTrialMemory:
    def test_gen_dataset_peak_within_one_fifth_of_the_matrix(self):
        # the matrix plus the one label vector (1/11 of it)
        data, peak = traced_peak(gen_dataset, N, W_STAR, RandomStream(41))
        assert peak <= 1.2 * data.values.nbytes

    def test_validate_bounds_peak_under_4_mib(self, data):
        _, peak = traced_peak(validate_bounds, data, PARTITION)
        assert peak < 4 * 2**20

    def test_dgm_release_peak_under_4_mib(self, data):
        # one published row block and one party's noise chunk at a time
        release, peak = traced_peak(
            dgm_release, data, PARTITION, calibrate(1.0, 1e-5), RandomStream(42)
        )
        assert release.n == N
        assert peak < 4 * 2**20
