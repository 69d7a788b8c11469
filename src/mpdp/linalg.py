"""Normal equations and the shared symmetric solve with eigenvalue diagnostics.

Every trainer needs only X'X and X'y of the matrix [X | y] it trains on
(``NormalEquations``), summed over fixed row blocks in order
(``NormalEquationSum``), and reduces to solving H w = b for a small
symmetric H.  H may be indefinite after de-biasing, so the solve is one
eigendecomposition (not Cholesky), whose eigenvalues also give the diagnostic,
and it refuses numerically singular systems instead of returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NormalEquationSum", "NormalEquations", "SingularSystemError", "normal_equations",
    "solve_normal_equations", "solve_symmetric",
]

COND_LIMIT = 1e14

# The most rows of one normal-equation or label block, and its byte cap.
_BLOCK_ROWS = 8192
_BLOCK_BYTES = 1 << 20


def _block_rows(cols: int) -> int:
    """The row count of every block of a ``cols``-wide float64 matrix but
    its last: the largest power of two <= _BLOCK_ROWS whose block fits in
    _BLOCK_BYTES.  A power of two divides a trial's 16 384-row chunk, so
    no block straddles two chunks.

    The cap is for OpenBLAS, which splits a long enough product across
    its threads and then rounds it differently.  Under one and two
    threads, a 2-column product (d = 1) changed bits at 16 384 rows and
    11- and 14-column ones at 65 536, while the sums over these blocks
    kept their bits up to 97 columns.
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


def solve_symmetric(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``matrix @ x = rhs`` for symmetric ``matrix`` = V diag(e) V'.

    Returns (x = V ((V' rhs) / e), min |e|).  Raises SingularSystemError when the
    eigenvalue-based condition estimate exceeds COND_LIMIT, or when the
    system has a non-finite entry (its eigenvalues are then unknown: nan).
    """
    if not (np.isfinite(matrix).all() and np.isfinite(rhs).all()):
        raise SingularSystemError("system has a non-finite entry", min_abs_eig=np.nan)
    eigs, vecs = np.linalg.eigh(matrix)
    lo, hi = float(np.abs(eigs).min()), float(np.abs(eigs).max())
    cond = np.inf if lo == 0.0 else hi / lo
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularSystemError(
            f"system is numerically singular (condition estimate {cond:.3g})", min_abs_eig=lo
        )
    return vecs @ ((vecs.T @ rhs) / eigs), lo


@dataclass(frozen=True)
class NormalEquations:
    """X'X (``gram``) and X'y (``xty``) of an n-row matrix [X | y] with
    its label last: everything a trainer needs of what it trains on."""

    gram: np.ndarray
    xty: np.ndarray
    n: int

    def __post_init__(self) -> None:
        if self.xty.ndim != 1 or self.gram.shape != self.xty.shape * 2 or self.n < 1:
            raise ValueError(
                f"need a d-by-d gram, a length-d xty and n >= 1, got shapes "
                f"{self.gram.shape} and {self.xty.shape}, n = {self.n}"
            )


class NormalEquationSum:
    """The normal equations of an n-row matrix [X | y], label last, pushed
    in order, each chunk through ``step`` first if one is given.  X'X and
    X'y are one product per ``_block_rows`` block, cut at absolute row
    offsets and summed in order, so the bits depend on the matrix alone.
    No chunk is kept, so every push but the last must be whole blocks
    (``chunk_views`` chunks are)."""

    def __init__(self, cols: int, n: int, step=None):
        if cols < 2:
            raise ValueError("need an n-by-(d+1) matrix with the label last")
        self.n, self._step, self._block = n, step, _block_rows(cols)
        self._gram = self._xty = None
        self._pushed = 0

    def push(self, chunk: np.ndarray) -> None:
        if self._pushed % self._block:
            raise ValueError(f"a push at row {self._pushed} does not start a "
                             f"{self._block}-row block")
        if self._step is not None:
            chunk = self._step(chunk)
        for b0 in range(0, chunk.shape[0], self._block):
            x, y = chunk[b0 : b0 + self._block, :-1], chunk[b0 : b0 + self._block, -1]
            if self._gram is None:
                self._gram, self._xty = x.T @ x, x.T @ y
            else:
                self._gram += x.T @ x
                self._xty += x.T @ y
        self._pushed += chunk.shape[0]

    def result(self) -> NormalEquations:
        if self._gram is None or self._pushed != self.n:
            raise ValueError(f"{self._pushed} of {self.n} rows pushed")
        return NormalEquations(gram=self._gram, xty=self._xty, n=self.n)


def normal_equations(matrix: np.ndarray) -> NormalEquations:
    """The normal equations of a held n-by-(d+1) matrix, label last (up
    to one ``_block_rows`` block: exactly ``x.T @ x`` and ``x.T @ y``)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("need an n-by-(d+1) matrix with the label last")
    acc = NormalEquationSum(matrix.shape[1], matrix.shape[0])
    acc.push(matrix)
    return acc.result()


def solve_normal_equations(
    eqs: NormalEquations, lam: float, scale: float = 1.0, shift: float = 0.0
) -> tuple[np.ndarray, float]:
    """Solve (H + lam*I) w = X'y / scale with H = X'X / scale - shift*I.

    The one core of every trainer: OLS and BGM use scale = n, DGM also
    subtracts its known noise variance as ``shift``, RMGM uses the raw
    Gram matrix (scale = 1).  Returns (w, min |eigenvalue| of H + lam*I),
    the return value of every trainer.
    """
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    eye = np.eye(eqs.gram.shape[0])
    hessian = eqs.gram / scale - shift * eye
    return solve_symmetric(hessian + lam * eye, eqs.xty / scale)
