"""Non-private least squares and the no-debias ablation (BGM-OLS)."""

from __future__ import annotations

import numpy as np

from .linalg import NormalEquations, normal_system, solve_system

__all__ = ["ols_system", "ols_train", "bgm_train"]


def ols_system(eqs: NormalEquations, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The system ((1/n) X'X + lam*I, (1/n) X'Y) that OLS, and BGM on a
    release, solve."""
    return normal_system(eqs, lam, scale=eqs.n)


def ols_train(eqs: NormalEquations, lam: float) -> tuple[np.ndarray, float]:
    """Solve ((1/n) X'X + lam*I) w = (1/n) X'Y; returns (weights, min
    |eigenvalue| of the regularized matrix).

    With lam = 0 and full-rank X this is the exact least-squares solution;
    rank-deficient systems with lam = 0 raise SingularSystemError.
    """
    return solve_system(ols_system(eqs, lam))


def bgm_train(release: NormalEquations, lam: float) -> tuple[np.ndarray, float]:
    """Plain least squares on a DGM release's normal equations, no de-biasing.

    The retained noise variance keeps the Gram matrix comfortably
    positive definite but also biases the solution toward zero, which is
    exactly the ablation this baseline exists to demonstrate.
    """
    return ols_train(release, lam)
