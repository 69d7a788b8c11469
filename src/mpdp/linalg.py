"""Normal equations, each method's system, and the one symmetric solve.

Every method needs only the Gram of the matrix [X | y] it trains on, X'X,
X'y and y'y in one matrix with the label last (``NormalEquations``),
summed over fixed row blocks in order (``NormalEquationSum``); no other
module reads or writes where the label sits.  Each method reduces to
solving H w = b for a small symmetric H, built by one function per rule:
``ols_system`` (OLS, and BGM on a DGM release), ``dgm.dgm_system`` and
``rmgm.rmgm_system``, each a ``normal_system``.  H may be indefinite after
de-biasing, so the solve is one eigendecomposition (not Cholesky), whose
eigenvalues also give the diagnostic, and it refuses numerically singular
systems instead of returning garbage.  ``solve_symmetric`` solves a stack
of systems (a trial's every method) and ``solve_system`` one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NormalEquationSum", "NormalEquations", "SingularSystemError", "gram_product", "gram_root",
    "normal_equations", "normal_system", "ols_system", "solve_symmetric", "solve_system",
]

COND_LIMIT = 1e14

# The most rows of one normal-equation or label block, and its byte cap.
_BLOCK_ROWS = 8192
_BLOCK_BYTES = 1 << 20

# The most columns, and rows, of one Gram panel product (see ``gram_product``).
_PANEL = 64
_PANEL_ROWS = 256


def _block_rows(cols: int) -> int:
    """The row count of every block of a ``cols``-wide float64 matrix but
    its last: the largest power of two <= _BLOCK_ROWS whose block fits in
    _BLOCK_BYTES.  A power of two divides a trial's 16 384-row chunk, so
    no block straddles two chunks.

    The cap is for OpenBLAS, which splits a long enough product across
    its threads and then rounds it differently.  Under one and two
    threads, a 2-column product (d = 1) changed bits at 16 384 rows and
    11- and 14-column ones at 65 536, while the sums over these blocks
    kept their bits at every width, once X'X is formed in panels
    (``gram_product``).
    """
    rows = _BLOCK_ROWS
    while rows > 1 and rows * cols * 8 > _BLOCK_BYTES:
        rows //= 2
    return rows


@lru_cache(maxsize=16)
def _identity(p: int) -> np.ndarray:
    """The p-by-p identity, one read-only array per size."""
    eye = np.eye(p)
    eye.flags.writeable = False
    return eye


@lru_cache(maxsize=16)
def _strict_lower(p: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.tril_indices(p, -1)``, the strict lower triangle of a p-by-p
    matrix in row-major order, as one read-only pair per size."""
    rows, cols = np.tril_indices(p, -1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


class SingularSystemError(ArithmeticError):
    """The (regularized) system matrix is numerically singular."""

    def __init__(self, message: str, min_abs_eig: float):
        super().__init__(message)
        self.min_abs_eig = min_abs_eig


def solve_symmetric(
    systems: list[tuple[np.ndarray, np.ndarray]],
) -> list[tuple[np.ndarray, float] | SingularSystemError]:
    """Solve each ``matrix @ x = rhs`` of a stack of symmetric systems,
    given as (matrix, rhs) pairs of one size, with one ``np.linalg.eigh``
    of the stack: matrix = V diag(e) V'.

    Returns one outcome per system, in order: (x = V ((V' rhs) / e),
    min |e|), or the SingularSystemError of a system whose
    eigenvalue-based condition estimate exceeds COND_LIMIT or that has a
    non-finite entry (its eigenvalues are then unknown: nan).  The
    back-substitution is two stacked products, each one gemv per system,
    so each system's outcome has the bits it has when solved alone, a
    stack of one.
    """
    matrices = np.array([matrix for matrix, _ in systems], dtype=np.float64)
    rhs = np.array([b for _, b in systems], dtype=np.float64)
    finite = np.isfinite(matrices).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
    # a non-finite matrix would fail the whole stack's eigh; it gets the identity
    matrices[~finite] = _identity(rhs.shape[1])
    eigs, vecs = np.linalg.eigh(matrices)
    abs_eigs = np.abs(eigs)
    with np.errstate(all="ignore"):  # a singular system's x is dropped below
        xs = np.matmul(vecs, np.matmul(vecs.transpose(0, 2, 1), rhs[:, :, None]) / eigs[:, :, None])
    outcomes = []
    for ok, x, lo, hi in zip(finite.tolist(), xs[:, :, 0], abs_eigs.min(axis=1).tolist(),
                             abs_eigs.max(axis=1).tolist()):
        if not ok:
            outcomes.append(SingularSystemError("system has a non-finite entry", min_abs_eig=np.nan))
            continue
        cond = math.inf if lo == 0.0 else hi / lo
        if not cond <= COND_LIMIT:  # nan too
            outcomes.append(SingularSystemError(
                f"system is numerically singular (condition estimate {cond:.3g})", min_abs_eig=lo
            ))
        else:
            outcomes.append((x, lo))
    return outcomes


def solve_system(system: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, float]:
    """Solve one (matrix, rhs) system, a stack of one (``solve_symmetric``):
    (x, min |eigenvalue|), or raise its SingularSystemError."""
    (outcome,) = solve_symmetric([system])
    if isinstance(outcome, SingularSystemError):
        raise outcome
    return outcome


def gram_product(x: np.ndarray) -> np.ndarray:
    """x'x.  Up to _PANEL columns that is the one product ``x.T @ x``.
    Wider, it is a sum over row slices of at most _PANEL_ROWS rows, in
    order, of one product per pair of column panels of at most _PANEL
    columns, ``x[:, a:a+w].T @ x[:, b:b+w]`` for a <= b, mirrored below
    the diagonal.

    OpenBLAS threads a product with a 97-column or wider output whatever
    its row count, and a 64-column panel product of another panel from
    about 385 rows on, and then rounds them differently.  These pieces
    kept their bits under one and two threads at every width tried from
    65 to 400 and every row count up to 1100.
    """
    cols = x.shape[1]
    if cols <= _PANEL:
        return x.T @ x
    out = np.zeros((cols, cols))
    for r0 in range(0, x.shape[0], _PANEL_ROWS):
        rows = x[r0 : r0 + _PANEL_ROWS]
        for a in range(0, cols, _PANEL):
            for b in range(a, cols, _PANEL):
                panel = rows[:, a : a + _PANEL].T @ rows[:, b : b + _PANEL]
                out[a : a + _PANEL, b : b + _PANEL] += panel
    lower = _strict_lower(cols)
    out[lower] = out.T[lower]
    return out


def gram_root(gram: np.ndarray, max_rows: int) -> np.ndarray:
    """An r-by-p T with T'T = ``gram`` (p-by-p, positive semidefinite) and
    r <= max_rows: a Cholesky factor with diagonal pivoting, one row per
    step, each taken at the largest remaining diagonal entry.  The steps
    stop after max_rows rows, or once that entry is at most p * eps times
    the largest diagonal entry of ``gram`` (what remains is rounding, the
    tolerance of LAPACK's pivoted Cholesky, dpstrf), so r is the numerical
    rank when max_rows is at least that.

    It is elementwise numpy only, so its bits do not depend on the BLAS
    thread count, where ``np.linalg.eigh`` of a p-by-p data Gram changed
    bits under two OpenBLAS threads at most p tried from 145 on.
    """
    rest = np.array(gram, dtype=np.float64)
    diagonal = rest.diagonal()  # a view: it follows the updates of rest
    tol = rest.shape[0] * np.finfo(np.float64).eps * diagonal.max(initial=0.0)
    rows = []
    while len(rows) < max_rows:
        k = int(diagonal.argmax())
        pivot = float(diagonal[k])
        if not pivot > tol:
            break
        row = rest[k] / math.sqrt(pivot)
        rest -= np.multiply.outer(row, row)
        rest[k, :] = rest[:, k] = 0.0
        rows.append(row)
    return np.array(rows).reshape(len(rows), rest.shape[0])


@dataclass(frozen=True)
class NormalEquations:
    """The (d+1)-by-(d+1) Gram ``gram`` of an n-row matrix [X | y], label
    last: X'X, X'y and y'y, everything a method needs of what it trains
    on."""

    gram: np.ndarray
    n: int

    def __post_init__(self) -> None:
        shape = self.gram.shape
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 2 or self.n < 1:
            raise ValueError(
                f"need a p-by-p gram with p >= 2 and n >= 1, got shape {shape}, n = {self.n}"
            )


class NormalEquationSum:
    """The normal equations of the first n rows of a matrix [X | y], label
    last, at each n of ``ns``, from one pass of its chunks up to the
    largest n, pushed in order.  Each ``_block_rows`` block, cut at
    absolute row offsets, makes X'X (``gram_product``), X'y and y'y as one
    product each, written into that block's Gram; the block Grams are
    summed in order from zero, so the bits depend on the matrix alone.  A
    smaller n takes its snapshot when the block holding its last row
    arrives: the running sum plus the Gram of its own partial block, so
    each n's sums are bit for bit those of its n rows alone.  A push must
    continue the pass within the largest n, and ``result(n)`` waits for
    n's rows (the rule of ``kernels.SketchSum`` too).  No chunk is kept,
    so every push but the last must be whole blocks (``chunk_views``
    chunks are)."""

    def __init__(self, cols: int, *ns: int):
        if cols < 2:
            raise ValueError("need an n-by-(d+1) matrix with the label last")
        if not ns:
            raise ValueError("need at least one row count n")
        self.n, self._cols, self._block = max(ns), cols, _block_rows(cols)
        self._gram = np.zeros((cols, cols))
        self._pushed = 0
        self._snapshots = {}  # each smaller n's sums, once its block is in
        self._pending = sorted(set(ns) - {self.n})  # the smaller ns not yet in, ascending

    def _block_gram(self, block: np.ndarray) -> np.ndarray:
        x, y = block[:, :-1], block[:, -1]
        gram = np.empty((self._cols, self._cols))
        gram[:-1, :-1], gram[-1, -1] = gram_product(x), y @ y
        gram[:-1, -1] = gram[-1, :-1] = x.T @ y
        return gram

    def push(self, chunk: np.ndarray) -> None:
        if self._pushed + chunk.shape[0] > self.n:
            raise ValueError(f"rows {self._pushed}:{self._pushed + chunk.shape[0]} run past "
                             f"n = {self.n}")
        if self._pushed % self._block:
            raise ValueError(f"a push at row {self._pushed} does not start a "
                             f"{self._block}-row block")
        for b0 in range(0, chunk.shape[0], self._block):
            block = chunk[b0 : b0 + self._block]
            r0 = self._pushed + b0
            r1 = r0 + block.shape[0]
            gram = self._block_gram(block)
            while self._pending and self._pending[0] <= r1:
                n = self._pending.pop(0)
                part = gram if n == r1 else self._block_gram(block[: n - r0])
                self._snapshots[n] = self._gram + part
            self._gram += gram
        self._pushed += chunk.shape[0]

    def result(self, n: int | None = None) -> NormalEquations:
        """The normal equations of the first ``n`` rows (by default the
        largest n), once they are pushed."""
        n = self.n if n is None else n
        if self._pushed < n:
            raise ValueError(f"{self._pushed} of {n} rows pushed")
        return NormalEquations(gram=self._gram if n == self.n else self._snapshots[n], n=n)


def normal_equations(matrix: np.ndarray) -> NormalEquations:
    """The normal equations of a held n-by-(d+1) matrix, label last (up
    to one ``_block_rows`` block and 64 feature columns: exactly
    ``x.T @ x``, ``x.T @ y`` and ``y @ y`` in the Gram's blocks)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("need an n-by-(d+1) matrix with the label last")
    acc = NormalEquationSum(matrix.shape[1], matrix.shape[0])
    acc.push(matrix)
    return acc.result()


def normal_system(
    eqs: NormalEquations, lam: float, scale: float = 1.0, shift: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """The system (H + lam*I, X'y / scale) with H = X'X / scale - shift*I,
    X'X and X'y read from ``eqs.gram``.

    The one core of every method's system: OLS and BGM use scale = n,
    DGM also subtracts its known noise variance as ``shift``, RMGM uses
    the raw Gram matrix (scale = 1).  ``solve_system`` of it returns (w,
    min |eigenvalue| of H + lam*I).
    """
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    eye = _identity(eqs.gram.shape[0] - 1)
    hessian = eqs.gram[:-1, :-1] / scale - shift * eye
    return hessian + lam * eye, eqs.gram[:-1, -1] / scale


def ols_system(eqs: NormalEquations, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The system ((1/n) X'X + lam*I, (1/n) X'y) of plain least squares,
    exact at lam = 0 with full-rank X.

    OLS solves it on the data's normal equations, and BGM on a DGM
    release's, without de-biasing: the retained noise variance keeps the
    matrix well conditioned but biases the weights toward zero, the
    ablation BGM exists to show.
    """
    return normal_system(eqs, lam, scale=eqs.n)
