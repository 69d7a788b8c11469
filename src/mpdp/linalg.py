"""Normal equations, each method's system, and the one symmetric solve.

Every method needs only X'X and X'y of the matrix [X | y] it trains on
(``NormalEquations``, which also keep y'y), summed over fixed row blocks
in order (``NormalEquationSum``), and reduces to solving H w = b for a small
symmetric H, built by one function per rule: ``ols_system`` (OLS, and BGM
on a DGM release), ``dgm.dgm_system`` and ``rmgm.rmgm_system``, each a
``normal_system``.  H may be indefinite after de-biasing, so the solve is one
eigendecomposition (not Cholesky), whose eigenvalues also give the diagnostic,
and it refuses numerically singular systems instead of returning garbage.
``solve_symmetric`` solves a stack of systems (a trial's every method) and
``solve_system`` one.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    non-finite entry (its eigenvalues are then unknown: nan).  Each
    system's outcome has the bits it has when solved alone, a stack of one.
    """
    matrices = np.array([matrix for matrix, _ in systems], dtype=np.float64)
    rhs = np.array([b for _, b in systems], dtype=np.float64)
    finite = np.isfinite(matrices).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
    # a non-finite matrix would fail the whole stack's eigh; it gets the identity
    eigs, vecs = np.linalg.eigh(np.where(finite[:, None, None], matrices, np.eye(rhs.shape[1])))
    abs_eigs = np.abs(eigs)
    outcomes = []
    for ok, e, v, b, lo, hi in zip(finite, eigs, vecs, rhs, abs_eigs.min(axis=1),
                                   abs_eigs.max(axis=1)):
        if not ok:
            outcomes.append(SingularSystemError("system has a non-finite entry", min_abs_eig=np.nan))
            continue
        lo, hi = float(lo), float(hi)
        cond = np.inf if lo == 0.0 else hi / lo
        if not np.isfinite(cond) or cond > COND_LIMIT:
            outcomes.append(SingularSystemError(
                f"system is numerically singular (condition estimate {cond:.3g})", min_abs_eig=lo
            ))
        else:
            outcomes.append((v @ ((v.T @ b) / e), lo))
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
    lower = np.tril_indices(cols, -1)
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
    tol = rest.shape[0] * np.finfo(np.float64).eps * rest.diagonal().max(initial=0.0)
    rows = []
    while len(rows) < max_rows:
        k = int(rest.diagonal().argmax())
        if not rest[k, k] > tol:
            break
        row = rest[k] / np.sqrt(rest[k, k])
        rest -= np.multiply.outer(row, row)
        rest[k, :] = rest[:, k] = 0.0
        rows.append(row)
    return np.array(rows).reshape(len(rows), rest.shape[0])


@dataclass(frozen=True)
class NormalEquations:
    """X'X (``gram``), X'y (``xty``) and y'y (``yty``) of an n-row matrix
    [X | y] with its label last: everything a method needs of what it
    trains on, and the whole Gram of [X | y]."""

    gram: np.ndarray
    xty: np.ndarray
    n: int
    yty: float

    def __post_init__(self) -> None:
        if self.xty.ndim != 1 or self.gram.shape != self.xty.shape * 2 or self.n < 1:
            raise ValueError(
                f"need a d-by-d gram, a length-d xty and n >= 1, got shapes "
                f"{self.gram.shape} and {self.xty.shape}, n = {self.n}"
            )


class NormalEquationSum:
    """The normal equations of an n-row matrix [X | y], label last, pushed
    in order.  X'X (``gram_product``), X'y and y'y are one product each
    per ``_block_rows`` block, cut at absolute row offsets and summed in
    order, so the bits depend on the matrix alone.
    No chunk is kept, so every push but the last must be whole blocks
    (``chunk_views`` chunks are)."""

    def __init__(self, cols: int, n: int):
        if cols < 2:
            raise ValueError("need an n-by-(d+1) matrix with the label last")
        self.n, self._block = n, _block_rows(cols)
        self._gram = self._xty = self._yty = None
        self._pushed = 0

    def push(self, chunk: np.ndarray) -> None:
        if self._pushed % self._block:
            raise ValueError(f"a push at row {self._pushed} does not start a "
                             f"{self._block}-row block")
        for b0 in range(0, chunk.shape[0], self._block):
            x, y = chunk[b0 : b0 + self._block, :-1], chunk[b0 : b0 + self._block, -1]
            if self._gram is None:
                self._gram, self._xty, self._yty = gram_product(x), x.T @ y, y @ y
            else:
                self._gram += gram_product(x)
                self._xty += x.T @ y
                self._yty += y @ y
        self._pushed += chunk.shape[0]

    def result(self) -> NormalEquations:
        if self._gram is None or self._pushed != self.n:
            raise ValueError(f"{self._pushed} of {self.n} rows pushed")
        return NormalEquations(gram=self._gram, xty=self._xty, n=self.n, yty=float(self._yty))


def normal_equations(matrix: np.ndarray) -> NormalEquations:
    """The normal equations of a held n-by-(d+1) matrix, label last (up
    to one ``_block_rows`` block and 64 feature columns: exactly
    ``x.T @ x``, ``x.T @ y`` and ``y @ y``)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("need an n-by-(d+1) matrix with the label last")
    acc = NormalEquationSum(matrix.shape[1], matrix.shape[0])
    acc.push(matrix)
    return acc.result()


def normal_system(
    eqs: NormalEquations, lam: float, scale: float = 1.0, shift: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """The system (H + lam*I, X'y / scale) with H = X'X / scale - shift*I.

    The one core of every method's system: OLS and BGM use scale = n,
    DGM also subtracts its known noise variance as ``shift``, RMGM uses
    the raw Gram matrix (scale = 1).  ``solve_system`` of it returns (w,
    min |eigenvalue| of H + lam*I).
    """
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    eye = np.eye(eqs.gram.shape[0])
    hessian = eqs.gram / scale - shift * eye
    return hessian + lam * eye, eqs.xty / scale


def ols_system(eqs: NormalEquations, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The system ((1/n) X'X + lam*I, (1/n) X'y) of plain least squares,
    exact at lam = 0 with full-rank X.

    OLS solves it on the data's normal equations, and BGM on a DGM
    release's, without de-biasing: the retained noise variance keeps the
    matrix well conditioned but biases the weights toward zero, the
    ablation BGM exists to show.
    """
    return normal_system(eqs, lam, scale=eqs.n)
