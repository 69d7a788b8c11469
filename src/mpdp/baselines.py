"""Non-private least squares and the no-debias ablation (BGM-OLS)."""

from __future__ import annotations

import numpy as np

from .dgm import DgmRelease
from .linalg import solve_normal_equations

__all__ = ["ols_train", "bgm_train"]


def ols_train(x: np.ndarray, y: np.ndarray, lam: float = 0.0) -> tuple[np.ndarray, float]:
    """Solve ((1/n) X'X + lam*I) w = (1/n) X'Y; returns (weights, min
    |eigenvalue| of the regularized matrix).

    With lam = 0 and full-rank X this is the exact least-squares solution;
    rank-deficient systems with lam = 0 raise SingularSystemError.
    """
    return solve_normal_equations(x, y, lam, scale=len(y))


def bgm_train(rel: DgmRelease, lam: float = 0.0) -> tuple[np.ndarray, float]:
    """Plain least squares on an additive-noise release, no de-biasing.

    The retained noise variance keeps the Gram matrix comfortably
    positive definite but also biases the solution toward zero, which is
    exactly the ablation this baseline exists to demonstrate.
    """
    return ols_train(rel.public_matrix[:, :-1], rel.public_matrix[:, -1], lam=lam)
