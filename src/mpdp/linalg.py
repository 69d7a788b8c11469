"""Shared symmetric linear solve with eigenvalue diagnostics.

All trainers reduce to solving H w = b for a small symmetric H.  H may
be indefinite after de-biasing, so the solve uses a symmetric
factorization (not Cholesky) and refuses numerically singular systems
instead of silently returning garbage.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = ["SingularSystemError", "solve_symmetric", "solve_normal_equations"]

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


def solve_normal_equations(
    x: np.ndarray, y: np.ndarray, lam: float, scale: float = 1.0, shift: float = 0.0
) -> tuple[np.ndarray, float]:
    """Solve (H + lam*I) w = X'y / scale with H = X'X / scale - shift*I.

    The one core of every trainer: OLS and BGM use scale = n, DGM also
    subtracts its known noise variance as ``shift``, RMGM uses the raw
    Gram matrix (scale = 1).  Returns (w, min |eigenvalue| of H + lam*I),
    the return value of every trainer.
    """
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be n-by-d with y of length n")
    eye = np.eye(x.shape[1])
    hessian = (x.T @ x) / scale - shift * eye
    return solve_symmetric(hessian + lam * eye, (x.T @ y) / scale)
