"""Working memory of a trial and of its whole-matrix passes at n = 1e6
(an 11-column, 84 MiB matrix).

A synthetic trial streams its generated data through its consumers (the
bounds check, the normal equations and the sketch) one chunk at a time,
so it holds no n-row array at all, and it checks each entry once.  The
library passes over a held matrix (generation, the bounds check, the DGM
release) walk it in row chunks, so none holds a second matrix-sized
temporary."""

import os
import tracemalloc

import pytest

import mpdp.data_model
from mpdp.config import build_config
from mpdp.data_model import partition_evenly, validate_bounds
from mpdp.dgm import dgm_release
from mpdp.dp_core import calibrate
from mpdp.runner import _synthetic_trial, run_real, run_synthetic
from mpdp.streams import RandomStream
from mpdp.synthetic import gen_dataset, gen_ground_truth

N = 10**6
W_STAR = gen_ground_truth(10, RandomStream(40))
PARTITION = partition_evenly(11, 6)
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "insurance_sample.csv")
METHODS = ("ols", "dgm", "rmgm", "bgm")


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
    def test_whole_synthetic_trial_peak_under_8_mib(self):
        # three eps, four methods: the data alone would be 84 MiB; the
        # trial holds one 16 384-row chunk (1.4 MiB) and its temporaries
        cfg = build_config({}, dict(methods=METHODS, eps_grid=(1.0, 0.3, 0.1), seeds=1))
        reports, peak = traced_peak(_synthetic_trial, cfg, RandomStream(43), N, 0)
        assert len(reports) == 1 + 3 * 3
        assert all(r.n == N and r.status == "ok" for r in reports)
        assert peak < 8 * 2**20

    def test_gen_dataset_peak_within_one_fifth_of_the_matrix(self):
        # the matrix plus one chunk and its feature draw
        data, peak = traced_peak(gen_dataset, N, W_STAR, RandomStream(41))
        assert peak <= 1.2 * data.values.nbytes

    def test_validate_bounds_peak_under_4_mib(self, data):
        _, peak = traced_peak(validate_bounds, data, PARTITION)
        assert peak < 4 * 2**20

    def test_dgm_release_peak_under_4_mib(self, data):
        # one noised chunk and one party's noise draw at a time
        release, peak = traced_peak(
            dgm_release, data, PARTITION, calibrate(1.0, 1e-5), RandomStream(42)
        )
        assert release.n == N
        assert peak < 4 * 2**20


class TestSingleScan:
    @pytest.fixture
    def scans(self, monkeypatch):
        """(check id, first row, rows, columns) of every chunk a
        ``BoundsCheck`` is pushed, in push order."""
        seen = []
        push = mpdp.data_model.BoundsCheck.push

        def recording_push(check, chunk):
            seen.append((id(check), check.rows, *chunk.shape))
            push(check, chunk)

        monkeypatch.setattr(mpdp.data_model.BoundsCheck, "push", recording_push)
        return seen

    @staticmethod
    def assert_one_scan(scans, n, cols):
        # one check, pushed chunks that tile rows 0..n once, every column
        assert len({check for check, *_ in scans}) == 1
        assert [row for _, row, _, _ in scans] == list(range(0, n, 16_384))
        assert sum(rows for _, _, rows, _ in scans) == n
        assert {c for *_, c in scans} == {cols}

    def test_synthetic_trial_checks_every_entry_once(self, scans):
        n = 2 * 16_384 + 5
        cfg = build_config({}, dict(methods=METHODS, eps_grid=(1.0, 0.1), seeds=1, n_grid=(n,)))
        run_synthetic(cfg)
        self.assert_one_scan(scans, n, 11)

    def test_real_trial_checks_every_entry_once(self, scans):
        cfg = build_config({}, dict(csv_path=FIXTURE, label_column="expenses", m=3,
                                    eps_grid=(1.0,), k_grid=(10,), seeds=1), protocol="real")
        run_real(cfg)
        self.assert_one_scan(scans, 80, 10)  # the 4:1 split's training rows
