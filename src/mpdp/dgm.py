"""Additive-noise release with de-biased training (DGM-OLS).

Release: each party adds i.i.d. N(0, 4*d_max*sigma^2) noise to its own
block, labels included, and the published matrix is the release.
Training: the known noise variance is subtracted from the Gram matrix
before solving, which restores consistency but can leave the de-biased
matrix with eigenvalues near zero; the solver surfaces that failure mode
instead of hiding it.
"""

from __future__ import annotations

import numpy as np

from .data_model import DataMatrix, PartyPartition, validate_bounds
from .dp_core import PrivacyParams, add_party_noise
from .linalg import solve_normal_equations
from .streams import RandomStream

__all__ = ["dgm_release", "dgm_train"]


def dgm_release(
    data: DataMatrix, partition: PartyPartition, priv: PrivacyParams, stream: RandomStream
) -> np.ndarray:
    """The published matrix D + R: the data plus per-party Gaussian noise.

    Party j's noise comes from the derived stream child(j), so releasing
    block-by-block and releasing the concatenated matrix are the same
    operation.  Requires the bounds check to pass (the sensitivity bound
    assumes |entry| <= 1).
    """
    validate_bounds(data, partition)
    public = data.values.copy(order="K")
    add_party_noise(public, partition, priv, stream)
    return public


def dgm_train(
    public: np.ndarray, d_max: int, priv: PrivacyParams, lam: float
) -> tuple[np.ndarray, float]:
    """Solve the de-biased normal equations on a released matrix.

    Computes H = (1/n) X'X - 4*d_max*sigma^2 * I from the public features
    X, then solves (H + lam*I) w = (1/n) X'Y and returns (weights, min
    |eigenvalue| of H + lam*I).  Raises SingularSystemError when the
    regularized matrix is numerically singular (the small-eigenvalue
    failure mode).
    """
    bias = 4.0 * d_max * priv.sigma**2
    return solve_normal_equations(
        public[:, :-1], public[:, -1], lam, scale=public.shape[0], shift=bias
    )
