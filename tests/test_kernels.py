import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import mpdp
from mpdp import kernels

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(mpdp.__file__)))

# Run in a child with BLAS pinned to one thread: the frozen kernel's own
# bits change with the OpenBLAS thread count once a tile is large enough
# for gemv or dot to be split across threads (e.g. k = 10, n = 70 000).
# numerics_version 2 kept the rows of every k with k % 4 in {0, 1} and
# k % 512 != 1; the others now end in a whole gemv group of 4 rows.
# numerics_version 3 kept them only within one 16 384-column chunk; past
# it, the chunks' products are summed in order (the v3 reference).
_FROZEN_CHECK = """
import json
import sys
import numpy as np
import _oracles
from mpdp.kernels import sketch_product

reference = getattr(_oracles, sys.argv[1])
rng = np.random.default_rng(11)
cases = 0
bad = []
for n in json.loads(sys.argv[2]):
    data = rng.uniform(-1, 1, size=(n, 7))
    for k in json.loads(sys.argv[3]):
        for c in (1, 3, 7):
            block = np.ascontiguousarray(data[:, 7 - c:])
            cases += 1
            if not np.array_equal(sketch_product(3, block, k), reference(3, block, k)):
                bad.append([n, k, c])
print(json.dumps({"cases": cases, "mismatched": bad}))
"""

_KEPT_KS = [4, 5, 8, 9, 12, 13, 16, 17, 65, 113, 129, 257, 512, 1024]


def frozen_check(reference, ns, ks):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC_DIR, TESTS_DIR]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _FROZEN_CHECK, reference, json.dumps(ns), json.dumps(ks)],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout)


class TestRademacherMatrix:
    def test_entries_are_plus_minus_one(self):
        m = kernels.rademacher_matrix(123, 40, 70)
        assert set(np.unique(m)) == {-1.0, 1.0}
        m = kernels.rademacher_matrix(5, 1, 1)
        assert m.shape == (1, 1) and m[0, 0] in (-1.0, 1.0)

    def test_reproducible_from_seed(self):
        a = kernels.rademacher_matrix(99, 16, 130)
        b = kernels.rademacher_matrix(99, 16, 130)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = kernels.rademacher_matrix(1, 8, 8)
        b = kernels.rademacher_matrix(2, 8, 8)
        assert not np.array_equal(a, b)

    def test_tiles_agree_with_full_matrix(self):
        full = kernels.rademacher_matrix(55, 30, 200)
        tile = kernels.rademacher_tile(55, 7, 9, 63, 111)
        np.testing.assert_array_equal(tile, full[7:16, 63:174])

    def test_tile_offsets_across_word_boundaries(self):
        full = kernels.rademacher_matrix(55, 4, 130)
        for col0, cols in [(0, 1), (63, 2), (64, 64), (127, 3), (1, 129)]:
            tile = kernels.rademacher_tile(55, 0, 4, col0, cols)
            np.testing.assert_array_equal(tile, full[:, col0 : col0 + cols])

    def test_tile_off_a_word_boundary_is_contiguous_float_signs(self):
        tile = kernels.rademacher_tile(55, 3, 8, 70, 150)
        assert tile.dtype == np.float64 and tile.flags.c_contiguous
        assert set(np.unique(tile)) == {-1.0, 1.0}

    def test_signs_are_pinned(self):
        # the frozen sketch oracles build B with rademacher_tile, so they
        # cannot see a fault in the splitmix words; this digest can (it
        # moved in numerics_version 8, when row r's words began at r * 2**32)
        signs = kernels.rademacher_matrix(2024, 13, 200).astype(np.int8)
        assert hashlib.sha256(signs.tobytes()).hexdigest() == (
            "84f4b15cf9f1d07bfff98d331cb984e592f72e99fd375f318512a04386ab2b36"
        )

    def test_entry_mean_near_zero(self):
        m = kernels.rademacher_matrix(2024, 1000, 1000)
        assert abs(m.mean()) < 3 / np.sqrt(m.size)


class TestSketchProduct:
    def test_matches_materialized_product(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(-1, 1, size=(555, 7))
        direct = kernels.rademacher_matrix(31, 20, 555) @ data
        streamed = kernels.sketch_product(31, data, 20)
        np.testing.assert_allclose(streamed, direct, rtol=1e-13, atol=1e-12)

    def test_spans_multiple_chunks(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(-1, 1, size=(kernels._COL_CHUNK + 333, 3))
        direct = kernels.rademacher_matrix(5, 4, data.shape[0]) @ data
        np.testing.assert_allclose(
            kernels.sketch_product(5, data, 4), direct, rtol=1e-12, atol=1e-9
        )

    def test_single_row_and_single_column(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(-1, 1, size=(50, 1))
        direct = kernels.rademacher_matrix(8, 1, 50) @ data
        np.testing.assert_allclose(kernels.sketch_product(8, data, 1), direct, atol=1e-12)

    def test_column_independence(self):
        # each output column depends only on the matching input column
        rng = np.random.default_rng(3)
        data = rng.uniform(-1, 1, size=(200, 5))
        whole = kernels.sketch_product(77, data, 12)
        for j in range(5):
            part = kernels.sketch_product(77, data[:, j : j + 1], 12)
            np.testing.assert_array_equal(part[:, 0], whole[:, j])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            kernels.sketch_product(1, np.zeros(5), 2)
        with pytest.raises(ValueError):
            kernels.sketch_product(1, np.zeros((5, 2)), 0)


class TestMatchesFrozenKernel:
    def test_bit_identical_to_numerics_v1_kernel(self):
        # tiles of 512, 128, 64 and 8 rows, all within one column chunk
        result = frozen_check("sketch_product_v1", [50, 700, 2000, 16_000], _KEPT_KS)
        assert result["cases"] == 4 * 14 * 3  # n x k x c
        assert result["mismatched"] == []

    def test_bit_identical_to_numerics_v3_reference(self):
        # five column chunks (four whole, one of 4464 columns) of 8-row
        # tiles; the reference holds a k x 16 384 B, so k stops at 129
        result = frozen_check("sketch_product_v3", [70_000], _KEPT_KS[:11])
        assert result["cases"] == 11 * 3  # k x c
        assert result["mismatched"] == []

    def test_row_tiles(self):
        wide = kernels._COL_CHUNK
        assert kernels._row_tiles(12, wide) == [(0, 8), (8, 12)]
        assert kernels._row_tiles(1000, 2000)[:2] == [(0, 64), (64, 128)]
        assert kernels._row_tiles(1000, 50)[0] == (0, 512)
        # the last tile ends at k rounded up to whole groups of 4 rows, so
        # no tile has a lone row or a 2- or 3-row remainder
        assert kernels._row_tiles(1, wide) == [(0, 4)]
        assert kernels._row_tiles(9, wide) == [(0, 8), (8, 12)]
        assert kernels._row_tiles(14, wide) == [(0, 8), (8, 16)]
        assert kernels._row_tiles(513, 50) == [(0, 512), (512, 516)]
        assert kernels._row_tiles(129, 2000)[-1] == (128, 132)
        for k in range(1, 300):
            for width in (50, 2000, wide):
                tiles = kernels._row_tiles(k, width)
                assert tiles[0][0] == 0 and k <= tiles[-1][1] < k + 4
                assert all(r1 == s0 for (_, r1), (s0, _) in zip(tiles, tiles[1:]))
                assert all(r0 % 4 == 0 and (r1 - r0) % 4 == 0 for r0, r1 in tiles)


# Each k-row sketch must be the first k rows of a larger one.  With the
# numerics_version 1 tiling, k % 4 in {2, 3} and k in {1, 513, 1025} broke this.
_PREFIX_KS = (*range(1, 41), 113, 513, 1025)


class TestPrefix:
    @pytest.mark.parametrize("n", [700, 16_000, 70_000])
    def test_every_sketch_is_a_prefix_of_a_larger_one(self, n):
        data = np.random.default_rng(n).uniform(-1, 1, size=(n, 3))
        full = kernels.sketch_product(12, data, 1030)
        bad = [k for k in _PREFIX_KS
               if not np.array_equal(kernels.sketch_product(12, data, k), full[:k])]
        assert bad == []


class TestSmallerN:
    """One pass over the largest n's columns gives each smaller n's sketch."""

    def test_b_n_is_the_first_n_columns_of_one_matrix(self):
        full = kernels.rademacher_matrix(2024, 13, 16_400)
        for n in (1, 63, 64, 65, 200, 16_385):
            assert np.array_equal(kernels.rademacher_matrix(2024, 13, n), full[:, :n])

    def test_each_n_is_its_sketch_alone(self):
        # n below, at and across the 16 384-column chunk, n % 4 in
        # {0, 1, 2, 3}; the k of 32 770 is above the largest n's
        data = np.random.default_rng(7).uniform(-1, 1, size=(70_000, 3))
        ks = {1_001: 5, 16_383: 13, 16_384: 20, 16_385: 9, 32_770: 40, 50_003: 17, 70_000: 30}
        sketch = kernels.SketchSum(9, 3, ks)
        for chunk in kernels.chunk_views(data):
            sketch.push(chunk)
        bad = [n for n, k in ks.items()
               if not np.array_equal(sketch.result(n), kernels.sketch_product(9, data[:n], k))]
        assert bad == []

    def test_an_n_is_ready_once_its_rows_are_in(self):
        # after the first 16 384-row chunk of a 20 000-row pass, the n
        # inside it is out, and the largest n, or one past the chunk, is not
        data = np.random.default_rng(5).uniform(-1, 1, size=(20_000, 3))
        sketch = kernels.SketchSum(5, 3, {20_000: 8, 10_000: 4})
        sketch.push(data[:16_384])
        assert np.array_equal(sketch.result(10_000), kernels.sketch_product(5, data[:10_000], 4))
        with pytest.raises(ValueError, match="16384 of 20000 rows pushed"):
            sketch.result()
        with pytest.raises(ValueError, match="16384 of 16385 rows pushed"):
            sketch.result(16_385)


class TestBlasThreads:
    def test_trials_csv_same_under_one_and_two_blas_threads(self, tmp_path):
        # k in {1, 513} at 16 000 training rows: the two k whose lone last
        # row once went to numpy's dot, which OpenBLAS splits across threads
        values = np.random.default_rng(3).uniform(0, 1, size=(20_000, 6))
        csv = tmp_path / "data.csv"
        np.savetxt(csv, values, fmt="%.17g", delimiter=",", header="a,b,c,d,e,y", comments="")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"csv_path = {csv}\nmethods = rmgm\nm = 3\neps_grid = 1.0\n"
                       "k_grid = 1, 513\nseeds = 2\n")
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=SRC_DIR, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "mpdp", "real", "--config", str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=600, check=True,
            )
            runs.append((out / "trials.csv").read_text())
        assert runs[0].count("\nrmgm,") == 4  # 2 seeds x 2 k
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("d", [120, 200])
    def test_wide_trainers_same_under_one_and_two_blas_threads(self, tmp_path, d):
        # a real CSV wider than one 64-column Gram panel: 1875 rows, so
        # 1500 training rows, in 1024- or 512-row blocks and a last one of
        # 476 (a 64-column product of two panels over 476 rows was threaded),
        # and the DGM Gram sampled at d + 1 columns
        values = np.random.default_rng(d).uniform(0, 1, size=(1875, d + 1))
        csv = tmp_path / "data.csv"
        np.savetxt(csv, values, fmt="%.17g", delimiter=",", comments="",
                   header=",".join(f"c{j}" for j in range(d + 1)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"csv_path = {csv}\nmethods = ols, dgm, bgm\nm = 3\n"
                       "eps_grid = 1.0, 0.1\nseeds = 2\n")
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=SRC_DIR, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "mpdp", "real", "--config", str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=600, check=True,
            )
            runs.append((out / "trials.csv").read_text())
        assert runs[0].count("\n") == 1 + 2 * (1 + 2 * 2)  # 2 seeds x (ols + 2 eps x 2)
        assert runs[0] == runs[1]


class TestReleasesTheGil:
    def test_every_matvec_is_an_np_dot_call(self, monkeypatch):
        # np.dot releases the GIL inside gemv and matmul (@) does not: with
        # @ two --workers threads sketched one at a time.  n = 70 000 is
        # five column chunks and k = 20 three row tiles (8, 8, 4), so 3
        # columns take 5 * 3 * 3 matvecs.
        data = np.random.default_rng(5).uniform(-1, 1, size=(70_000, 3))
        expected = kernels.sketch_product(9, data, 20)
        calls = 0
        dot = np.dot

        def counting_dot(*args, **kwargs):
            nonlocal calls
            calls += 1
            return dot(*args, **kwargs)

        monkeypatch.setattr(np, "dot", counting_dot)
        assert np.array_equal(kernels.sketch_product(9, data, 20), expected)
        assert calls == 5 * 3 * 3


class TestCacheLineOperands:
    def test_every_matvec_operand_starts_on_a_cache_line(self, monkeypatch):
        # a gemv over tile rows that start 16 or 48 bytes past a 64-byte
        # line took about 1.25x as long; at n = 16 000 every tile row and
        # transposed column is a whole number of lines
        data = np.random.default_rng(6).uniform(-1, 1, size=(16_000, 3))
        offsets = set()
        dot = np.dot

        def recording_dot(tile, column, **kwargs):
            offsets.add((tile.ctypes.data % 64, column.ctypes.data % 64))
            return dot(tile, column, **kwargs)

        monkeypatch.setattr(np, "dot", recording_dot)
        kernels.sketch_product(9, data, 20)
        assert offsets == {(0, 0)}


class TestWorkingMemory:
    @pytest.mark.parametrize("n, c, k", [(16_000, 13, 3000), (300_000, 11, 113)])
    def test_peak_under_6_mib(self, n, c, k):
        # one tile of at most 1 MiB, one band of sign words (about
        # 128 KiB), one transposed column chunk (at most 13 x 16 384
        # float64 here) and the output
        data = np.random.default_rng(4).uniform(-1, 1, size=(n, c))
        tracemalloc.start()
        try:
            kernels.sketch_product(6, data, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_only_the_result_outlives_the_last_push(self):
        # the (13, 16 000) transpose buffer, 1.6 MiB, is freed by the push
        # that completes the rows, before a trial's releases and solve;
        # what stays is the result and the tile list (about 45 KiB here)
        n, c, k = 16_000, 13, 3000
        data = np.random.default_rng(4).uniform(-1, 1, size=(n, c))
        tracemalloc.start()
        try:
            sketch = kernels.SketchSum(6, c, {n: k})
            for chunk in kernels.chunk_views(data):
                sketch.push(chunk)
            held = tracemalloc.get_traced_memory()[0]
            before = sketch.result().copy()
            sketch.push(data[n:])  # an empty chunk after the last one is a no-op
            with pytest.raises(ValueError, match="not a column chunk"):
                sketch.push(data[:1])
        finally:
            tracemalloc.stop()
        assert held < sketch.result().nbytes + 64 * 2**10
        assert np.array_equal(sketch.result(), before)
