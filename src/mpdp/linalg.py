"""Normal equations and the shared symmetric solve with eigenvalue diagnostics.

Every trainer needs only X'X and X'y of the matrix [X | y] it trains on
(``NormalEquations``), summed over fixed row blocks in order
(``sum_normal_equations``), and reduces to solving H w = b for a small
symmetric H.  H may be indefinite after de-biasing, so the solve uses a
symmetric factorization (not Cholesky) and refuses numerically singular
systems instead of silently returning garbage.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .data_model import _row_blocks

__all__ = [
    "NormalEquations",
    "SingularSystemError",
    "normal_equations",
    "solve_normal_equations",
    "solve_symmetric",
    "sum_normal_equations",
]

COND_LIMIT = 1e14


class SingularSystemError(ArithmeticError):
    """The (regularized) system matrix is numerically singular."""

    def __init__(self, message: str, min_abs_eig: float):
        super().__init__(message)
        self.min_abs_eig = min_abs_eig


def solve_symmetric(matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``matrix @ x = rhs`` for symmetric ``matrix``.

    Returns (x, min |eigenvalue|).  Raises SingularSystemError when the
    eigenvalue-based condition estimate exceeds COND_LIMIT, or when the
    system has a non-finite entry (its eigenvalues are then unknown: nan).
    """
    if not (np.isfinite(matrix).all() and np.isfinite(rhs).all()):
        raise SingularSystemError("system has a non-finite entry", min_abs_eig=np.nan)
    eigs = np.abs(np.linalg.eigvalsh(matrix))
    lo, hi = float(eigs.min()), float(eigs.max())
    cond = np.inf if lo == 0.0 else hi / lo
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularSystemError(
            f"system is numerically singular (condition estimate {cond:.3g})", min_abs_eig=lo
        )
    x = scipy.linalg.solve(matrix, rhs, assume_a="sym")
    return x, lo


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


def sum_normal_equations(blocks: Iterable[np.ndarray]) -> NormalEquations:
    """The normal equations of the matrix whose row blocks, in order, are
    ``blocks`` (each 2-D, label last).

    Each block's X'X and X'y are one product each, summed in block order,
    so the bits depend on the block boundaries and on nothing else: the
    blocks of ``_row_chunks`` are short enough that OpenBLAS does not
    split a product across its threads.  The blocks may be produced on
    the fly; none is kept.
    """
    gram = xty = None
    n = 0
    for block in blocks:
        x, y = block[:, :-1], block[:, -1]
        if gram is None:
            gram, xty = x.T @ x, x.T @ y
        else:
            gram += x.T @ x
            xty += x.T @ y
        n += block.shape[0]
    if gram is None:
        raise ValueError("no rows to sum")
    return NormalEquations(gram=gram, xty=xty, n=n)


def normal_equations(matrix: np.ndarray) -> NormalEquations:
    """The normal equations of a held n-by-(d+1) matrix, label last,
    summed over its row chunks (one chunk: exactly ``x.T @ x`` and
    ``x.T @ y``)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] < 2:
        raise ValueError("need an n-by-(d+1) matrix with the label last")
    return sum_normal_equations(_row_blocks(matrix))


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
