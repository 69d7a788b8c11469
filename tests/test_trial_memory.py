"""Working memory of a trial and of its whole-matrix passes at n = 1e6
(an 11-column, 84 MiB matrix).

A synthetic trial streams its generated data through its consumers (the
bounds check, the normal equations and the sketch) one chunk at a time,
so it holds no n-row array at all, and it checks each entry once.  The
generator yields its rows one chunk at a time into one buffer, and the
library passes over a held matrix (the bounds check, the DGM release)
walk it in row chunks, so none holds a second matrix-sized temporary.
A real CSV is parsed into the one buffer that becomes its matrix, its
split is normalised in place, and an RMGM release adds its noise to its
own k-row result."""

import os
import tracemalloc

import numpy as np
import pytest

import mpdp.data_model
from mpdp.config import build_config
from mpdp.data_model import (
    BoundsCheck, DataMatrix, feed, load_csv, partition_evenly, split_normalized,
)
from mpdp.dgm import dgm_release
from mpdp.dp_core import calibrate
from mpdp.kernels import chunk_views
from mpdp.rmgm import rmgm_release
from mpdp.runner import _synthetic_trial, run_real, run_synthetic
from mpdp.streams import RandomStream
from mpdp.synthetic import gen_chunks, gen_ground_truth

from _oracles import gen_matrix

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
    return gen_matrix(N, W_STAR, RandomStream(41))


class TestTrialMemory:
    def test_whole_synthetic_trial_peak_under_8_mib(self):
        # three eps, four methods: the data alone would be 84 MiB; the
        # trial holds one 16 384-row chunk (1.4 MiB) and its temporaries
        cfg = build_config({}, dict(methods=METHODS, eps_grid=(1.0, 0.3, 0.1), seeds=1))
        reports, peak = traced_peak(_synthetic_trial, cfg, RandomStream(43), N, 0)
        assert len(reports) == 1 + 3 * 3
        assert all(r.n == N and r.status == "ok" for r in reports)
        assert peak < 8 * 2**20

    def test_gen_chunks_peak_under_4_mib(self):
        # one chunk buffer and its feature draw, whatever n
        check = BoundsCheck(PARTITION, 11)
        _, peak = traced_peak(feed, gen_chunks(N, W_STAR, RandomStream(41)), check)
        assert check.rows == N
        assert peak < 4 * 2**20

    def test_bounds_check_peak_under_4_mib(self, data):
        check = BoundsCheck(PARTITION, 11)
        _, peak = traced_peak(feed, chunk_views(data.values), check)
        assert check.rows == N
        assert peak < 4 * 2**20

    def test_dgm_release_peak_under_4_mib(self, data):
        # one noised chunk and one party's noise draw at a time
        release, peak = traced_peak(
            dgm_release, data, PARTITION, calibrate(1.0, 1e-5), RandomStream(42)
        )
        assert release.n == N
        assert peak < 4 * 2**20

    def test_load_csv_peak_within_one_and_a_half_matrices(self, tmp_path):
        # 17-digit cells, label in the middle: 5 MiB of text for a 2 MiB
        # matrix; per-cell floats and a reordering copy would peak near 7x
        table = np.random.default_rng(44).uniform(-1e3, 1e3, size=(20_000, 13))
        path = str(tmp_path / "wide.csv")
        np.savetxt(path, table, fmt="%.17g", delimiter=",", comments="",
                   header=",".join(f"c{i}" for i in range(13)))
        assert os.path.getsize(path) >= 2 * 2**20
        data, peak = traced_peak(load_csv, path, "c6")
        np.testing.assert_array_equal(data.values, table[:, [*range(6), *range(7, 13), 6]])
        assert peak <= 1.5 * data.values.nbytes

    def test_split_normalized_peak_within_one_and_a_half_matrices(self):
        # normalising the split into fresh arrays, while the split's copies
        # are alive, would peak near 2x
        values = np.random.default_rng(47).uniform(-1e3, 1e3, size=(20_000, 13))
        data = DataMatrix(values, tuple(f"c{i}" for i in range(13)))
        (train, test), peak = traced_peak(split_normalized, data, RandomStream(48))
        assert (train.n, test.n) == (16_000, 4_000)
        assert peak <= 1.5 * values.nbytes

    def test_rmgm_release_allocates_the_release_and_one_party_noise(self):
        # a copy of the scaled rows before the noise is added would hold a
        # second 880 KB release
        k = 10_000
        product = np.random.default_rng(45).uniform(-1.0, 1.0, size=(k, 11))
        release, peak = traced_peak(rmgm_release, product, N, PARTITION, calibrate(1.0, 1e-5), k,
                                    RandomStream(46))
        assert release.shape == (k, 11)
        assert peak <= release.nbytes + k * PARTITION.d_max * 8 + 2**16


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
