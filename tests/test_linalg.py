import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mpdp
import mpdp.linalg
from mpdp.config import build_config, parse_config_file
from mpdp.kernels import _COL_CHUNK, chunk_views
from mpdp.linalg import (
    NormalEquationSum,
    NormalEquations,
    SingularSystemError,
    _block_rows,
    gram_product,
    gram_root,
    normal_equations,
    normal_system,
    solve_symmetric,
    solve_system,
)
from mpdp.runner import _synthetic_trial

from _oracles import gram_loops, xty_loops


SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(mpdp.__file__)))
DESK_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "synthetic_desk.cfg")

# 20 seeded indefinite systems per size, solved as one stack and hashed
# with their min |eigenvalue|
_SOLVE_HASHES = """
import hashlib
import json
import sys
import numpy as np
from mpdp.linalg import solve_symmetric

out = {}
for d in map(int, sys.argv[1:]):
    systems = []
    for seed in range(20):
        rng = np.random.default_rng([d, seed])
        a = rng.uniform(-1, 1, size=(d, d))
        systems.append((a + a.T, rng.uniform(-1, 1, size=d)))
    digest = hashlib.sha256()
    for x, lo in solve_symmetric(systems):
        digest.update(x.tobytes() + np.float64(lo).tobytes())
    out[d] = digest.hexdigest()
print(json.dumps(out))
"""


def eqs_of(x, y):
    return normal_equations(np.column_stack([x, y]))


class TestNormalEquations:
    def test_one_block_is_one_product(self):
        # up to one row block the sums are exactly the whole-matrix
        # products the trainers computed before they were chunked
        for n, cols in ((1, 2), (700, 2), (_block_rows(11), 11), (2000, 6)):
            assert n <= _block_rows(cols)
            matrix = np.random.default_rng(n).uniform(-1, 1, size=(n, cols))
            x, y = matrix[:, :-1], matrix[:, -1]
            eqs = normal_equations(matrix)
            assert np.array_equal(eqs.gram[:-1, :-1], x.T @ x)
            assert np.array_equal(eqs.gram[:-1, -1], x.T @ y)
            assert np.array_equal(eqs.gram[-1, :-1], x.T @ y)
            assert eqs.gram[-1, -1] == y @ y and eqs.n == n

    @pytest.mark.parametrize("cols", [4, 66, 130])
    def test_blocks_are_summed_in_order(self, cols):
        # two whole blocks and a 3-row remainder; 66 and 130 columns
        # form X'X in Gram panels (``gram_product``)
        rows = _block_rows(cols)
        n = 2 * rows + 3
        matrix = np.random.default_rng(1).uniform(-1, 1, size=(n, cols))
        eqs = normal_equations(matrix)
        gram, xty, yty = 0.0, 0.0, 0.0
        for r0 in range(0, n, rows):
            x, y = matrix[r0 : r0 + rows, :-1], matrix[r0 : r0 + rows, -1]
            gram, xty, yty = gram + gram_product(x), xty + x.T @ y, yty + y @ y
        assert np.array_equal(eqs.gram[:-1, :-1], gram)
        assert np.array_equal(eqs.gram[:-1, -1], xty)
        assert eqs.gram[-1, -1] == yty and eqs.n == n
        assert np.array_equal(eqs.gram, eqs.gram.T)
        if cols == 4:
            np.testing.assert_allclose(gram, gram_loops(matrix[:, :-1]), rtol=1e-12)
            np.testing.assert_allclose(xty, xty_loops(matrix[:, :-1], matrix[:, -1]),
                                       rtol=1e-10, atol=1e-10)

    def test_streamed_blocks_equal_the_held_matrix(self):
        # a trial's chunks pushed through one buffer that is overwritten
        # after each push, at 11 columns (8192-row blocks) and 41
        # (2048-row blocks): the sums are those of the held matrix bit
        # for bit, so no pushed chunk is kept
        n = 20_011
        for cols in (11, 41):
            matrix = np.random.default_rng(cols).uniform(-1, 1, size=(n, cols))
            eqs = NormalEquationSum(cols, n)
            buffer = np.empty((_COL_CHUNK, cols))
            for chunk in chunk_views(matrix):
                buffer[: len(chunk)] = chunk
                eqs.push(buffer[: len(chunk)])
                buffer.fill(np.nan)
            streamed, held = eqs.result(), normal_equations(matrix)
            assert np.array_equal(streamed.gram, held.gram)
            assert streamed.n == n

    @pytest.mark.parametrize("cols", [11, 41])
    def test_one_pass_gives_every_smaller_n_alone(self, cols):
        # inside the first 8192-row block, at its end and one past it,
        # around the 16 384-row chunk's end, and n % 4 in {1, 3}; 41
        # columns cut 2048-row blocks.  Each n's sums are those of its
        # rows alone, bit for bit, from chunks whose buffer is overwritten
        n_max = 20_011
        ns = (5_001, 8_192, 8_193, 16_383, 16_384, 16_385, n_max)
        matrix = np.random.default_rng(cols).uniform(-1, 1, size=(n_max, cols))
        eqs = NormalEquationSum(cols, *reversed(ns))
        buffer = np.empty((_COL_CHUNK, cols))
        for chunk in chunk_views(matrix):
            buffer[: len(chunk)] = chunk
            eqs.push(buffer[: len(chunk)])
            buffer.fill(np.nan)
        assert eqs.result().n == n_max
        for n in ns:
            grid, alone = eqs.result(n), normal_equations(matrix[:n])
            assert np.array_equal(grid.gram, alone.gram), n
            assert grid.n == n

    def test_a_smaller_n_is_ready_once_its_rows_are_in(self):
        eqs = NormalEquationSum(4, 9_000, 20_000)
        eqs.push(np.zeros((8_192, 4)))
        with pytest.raises(ValueError, match="8192 of 9000 rows pushed"):
            eqs.result(9_000)
        eqs.push(np.zeros((8_192, 4)))
        assert eqs.result(9_000).n == 9_000
        with pytest.raises(ValueError, match="16384 of 20000 rows pushed"):
            eqs.result()
        with pytest.raises(KeyError):
            eqs.result(10_000)

    def test_a_desk_seed_sums_one_gram_per_block(self, monkeypatch):
        # one running sum over 37 blocks to 3e5, and one partial-block
        # Gram for each of 1e4, 3e4 and 1e5: 40 products over 3.09e5 rows,
        # where one sum per n made 2 + 4 + 13 + 37 = 56 over 4.4e5
        rows = []
        product = mpdp.linalg.gram_product
        monkeypatch.setattr(mpdp.linalg, "gram_product",
                            lambda x: rows.append(len(x)) or product(x))
        cfg = build_config(parse_config_file(DESK_CFG), dict(methods=("ols",), seeds=1))
        assert cfg.n_grid == (10_000, 30_000, 100_000, 300_000)
        _synthetic_trial(cfg, 0)
        assert len(rows) == 40
        assert sum(rows) == 300_000 + (10_000 - 8_192) + (30_000 - 24_576) + (100_000 - 98_304)

    def test_push_off_a_block_boundary_raises(self):
        eqs = NormalEquationSum(41, 20_011)
        eqs.push(np.zeros((1000, 41)))
        with pytest.raises(ValueError, match="push at row 1000 does not start a 2048-row block"):
            eqs.push(np.zeros((1000, 41)))

    def test_rows_past_n_raise(self):
        # rows past the largest n are no n's data: the push is refused
        # whole, and the pass goes on
        eqs = NormalEquationSum(4, 100)
        with pytest.raises(ValueError, match="rows 0:16384 run past n = 100"):
            eqs.push(np.ones((16_384, 4)))
        eqs.push(np.ones((100, 4)))
        with pytest.raises(ValueError, match="rows 100:101 run past n = 100"):
            eqs.push(np.ones((1, 4)))
        assert np.array_equal(eqs.result().gram, normal_equations(np.ones((100, 4))).gram)

    def test_every_block_divides_a_trial_chunk(self):
        for cols in range(2, 401):
            assert _COL_CHUNK % _block_rows(cols) == 0, cols

    def test_rejects_empty_and_malformed_input(self):
        with pytest.raises(ValueError, match="0 of 10 rows"):
            NormalEquationSum(4, 10).result()
        with pytest.raises(ValueError, match="at least one"):
            NormalEquationSum(4)
        short = NormalEquationSum(4, 10)
        short.push(np.ones((3, 4)))
        with pytest.raises(ValueError, match="3 of 10 rows"):
            short.result()
        with pytest.raises(ValueError):
            normal_equations(np.ones(5))
        with pytest.raises(ValueError):
            normal_equations(np.ones((5, 1)))


class TestGramProduct:
    def test_up_to_64_columns_it_is_one_product(self):
        for cols in (1, 11, 40, 64):
            x = np.random.default_rng(cols).uniform(-1, 1, size=(700, cols + 1))[:, :-1]
            assert np.array_equal(gram_product(x), x.T @ x)

    @pytest.mark.parametrize("rows, cols", [(700, 65), (300, 120), (1024, 200)])
    def test_wider_is_a_sum_of_panel_products(self, rows, cols):
        # 256-row slices in order, each one product per pair of 64-column
        # panels on or above the diagonal, mirrored below it
        x = np.random.default_rng(rows).uniform(-1, 1, size=(rows, cols))
        gram = gram_product(x)
        expected = np.zeros((cols, cols))
        for r0 in range(0, rows, 256):
            for a in range(0, cols, 64):
                for b in range(a, cols, 64):
                    part = x[r0 : r0 + 256, a : a + 64].T @ x[r0 : r0 + 256, b : b + 64]
                    expected[a : a + 64, b : b + 64] += part
        upper = np.triu_indices(cols)
        assert np.array_equal(gram[upper], expected[upper])
        assert np.array_equal(gram, gram.T)
        np.testing.assert_allclose(gram, x.T @ x, rtol=1e-12, atol=1e-11)


class TestGramRoot:
    @pytest.mark.parametrize("n, p, rank", [(50, 6, 6), (50, 6, 4), (3, 6, 3), (4, 14, 4)])
    def test_root_of_a_data_gram(self, n, p, rank):
        # rank < min(n, p): two columns repeat others, so the steps stop
        # once the rest is rounding
        rng = np.random.default_rng([n, p, rank])
        data = rng.uniform(-1, 1, size=(n, p))
        data[:, rank:] = data[:, : p - rank] if rank < min(n, p) else data[:, rank:]
        gram = data.T @ data
        root = gram_root(gram, n)
        assert root.shape == (rank, p)
        np.testing.assert_allclose(root.T @ root, gram, rtol=0, atol=1e-12 * n)

    def test_zero_gram_has_an_empty_root(self):
        assert gram_root(np.zeros((3, 3)), 10).shape == (0, 3)


def solve_normal_equations(eqs, lam, **rules):
    return solve_system(normal_system(eqs, lam, **rules))


class TestSolveNormalEquations:
    def test_matches_explicit_system(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(200, 4))
        y = rng.uniform(-1, 1, size=200)
        scale, shift, lam = 200, 0.05, 1e-3
        weights, min_eig = solve_normal_equations(eqs_of(x, y), lam, scale=scale, shift=shift)
        system = x.T @ x / scale + (lam - shift) * np.eye(4)
        np.testing.assert_allclose(system @ weights, x.T @ y / scale, rtol=1e-10, atol=1e-13)
        assert min_eig == pytest.approx(np.abs(np.linalg.eigvalsh(system)).min(), rel=1e-12)

    def test_defaults_use_the_raw_gram_matrix(self):
        x = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        weights, min_eig = solve_normal_equations(eqs_of(x, np.ones(3)), 0.0)
        np.testing.assert_allclose(x.T @ x @ weights, x.T @ np.ones(3), rtol=1e-12)
        assert min_eig == pytest.approx(np.linalg.eigvalsh(x.T @ x).min(), rel=1e-12)

    def test_rejects_negative_lambda_and_mismatched_shapes(self):
        with pytest.raises(ValueError, match="lam"):
            solve_normal_equations(eqs_of(np.eye(3), np.ones(3)), -1.0)
        # a Gram must be square, with the label and at least one feature
        for gram in (np.ones(3), np.ones((3, 2)), np.ones((1, 1)), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="p-by-p gram"):
                NormalEquations(gram=gram, n=3)
        with pytest.raises(ValueError, match="n >= 1"):
            NormalEquations(gram=np.eye(3), n=0)
        # X'y and y'y are the Gram's label row and column, with no field of
        # their own, so no normal equations come without y'y
        with pytest.raises(TypeError):
            NormalEquations(gram=np.eye(3), xty=np.ones(3), n=3)

    def test_shift_to_singular_raises(self):
        # shifting the identity Gram matrix by exactly 1 leaves the zero matrix
        with pytest.raises(SingularSystemError):
            solve_normal_equations(eqs_of(np.eye(3), np.ones(3)), 0.0, shift=1.0)

    @staticmethod
    def solve_hashes_per_thread_count(*sizes):
        """``_SOLVE_HASHES`` of ``sizes`` under one, then two OpenBLAS threads."""
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=SRC_DIR, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", _SOLVE_HASHES, *map(str, sizes)],
                env=env, capture_output=True, text=True, timeout=600, check=True,
            )
            hashes.append(json.loads(proc.stdout))
        return hashes

    def test_solution_and_eigenvalue_do_not_depend_on_blas_threads(self):
        # an LU solve (np.linalg.solve) of these systems changes bits
        # between one and two OpenBLAS threads at d = 120 and 200
        one, two = self.solve_hashes_per_thread_count(10, 40, 96, 200)
        assert one == two

    @pytest.mark.xfail(reason="eigh (LAPACK dsyevd) changes bits under two OpenBLAS threads "
                              "at most d >= 145; ROADMAP item 10")
    def test_solution_at_d_150_does_not_depend_on_blas_threads(self):
        one, two = self.solve_hashes_per_thread_count(150)
        assert one == two

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_system_is_singular(self, bad):
        # eigh returns all-nan eigenvalues for such a matrix, and such a
        # right-hand side gives a non-finite solution: both are reported as
        # singular, with unknown eigenvalues
        matrix = np.eye(2)
        matrix[0, 1] = matrix[1, 0] = bad
        for system in ((matrix, np.ones(2)), (np.eye(2), np.array([1.0, bad]))):
            with pytest.raises(SingularSystemError) as caught:
                solve_system(system)
            assert np.isnan(caught.value.min_abs_eig)


class TestStackedSolve:
    """``solve_symmetric`` solves a stack with one eigh; each outcome must
    have the bits of that system solved alone, whatever shares its stack."""

    @staticmethod
    def alone(matrix, rhs):
        """The per-system solve: numpy's own eigh of one matrix and the
        back-substitution, with the finiteness and condition gates."""
        if not (np.isfinite(matrix).all() and np.isfinite(rhs).all()):
            return "non-finite", np.nan
        eigs, vecs = np.linalg.eigh(matrix)
        lo, hi = float(np.abs(eigs).min()), float(np.abs(eigs).max())
        if lo == 0.0 or hi / lo > 1e14:
            return "singular", lo
        return vecs @ ((vecs.T @ rhs) / eigs), lo

    @pytest.mark.parametrize("p", [2, 11, 41, 96, 151, 201])
    def test_stack_equals_per_system_solves(self, p):
        rng = np.random.default_rng(p)
        systems = []
        for i in range(9):
            a = rng.uniform(-1, 1, size=(p, p))
            matrix, rhs = a + a.T, rng.uniform(-1, 1, size=p)
            if i % 3 == 1:  # condition far above 1e14: one eigenvalue about 1e-17
                vecs = np.linalg.qr(a)[0]
                matrix = (vecs * np.r_[1e-17, np.ones(p - 1)]) @ vecs.T
            elif i % 3 == 2:  # one non-finite entry, in the matrix or the rhs
                (matrix if i == 2 else rhs)[0] = (np.nan, np.inf, -np.inf)[i // 3 % 3]
            systems.append((matrix, rhs))
        outcomes = solve_symmetric(systems)
        assert len(outcomes) == len(systems)
        for (matrix, rhs), outcome in zip(systems, outcomes):
            x, lo = self.alone(matrix, rhs)
            if isinstance(x, str):
                assert isinstance(outcome, SingularSystemError)
                assert ("non-finite" in str(outcome)) == (x == "non-finite")
                assert np.array_equal(outcome.min_abs_eig, lo, equal_nan=True)
            else:
                assert np.array_equal(outcome[0], x) and outcome[1] == lo
            # a stack of one: the same bits, or the same error
            if isinstance(outcome, SingularSystemError):
                with pytest.raises(SingularSystemError) as caught:
                    solve_system((matrix, rhs))
                assert str(caught.value) == str(outcome)
                assert np.array_equal(caught.value.min_abs_eig, outcome.min_abs_eig,
                                      equal_nan=True)
            else:
                alone = solve_system((matrix, rhs))
                assert np.array_equal(alone[0], outcome[0]) and alone[1] == outcome[1]
