"""Additive-noise release with de-biased training (DGM-OLS).

Release: each party adds i.i.d. N(0, 4*d_max*sigma^2) noise to its own
block, labels included.  Training: the known noise variance is
subtracted from the Gram matrix before solving, which restores
consistency but can leave the de-biased matrix with eigenvalues near
zero; the solver surfaces that failure mode instead of hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import DataMatrix, PartyPartition, check_release_input
from .dp_core import PrivacyParams, gaussian_noise, sensitivity_bound
from .linalg import solve_normal_equations
from .streams import RandomStream, as_stream

__all__ = ["DgmRelease", "DebiasedHessian", "dgm_release", "dgm_train"]


@dataclass(frozen=True)
class DgmRelease:
    """A noisy copy of the private matrix: same shape, one noise draw per
    party block, reconstructible from the recorded per-party streams."""

    public_matrix: np.ndarray
    noise_std: float
    party_seeds: tuple[RandomStream, ...]

    @property
    def n(self) -> int:
        return self.public_matrix.shape[0]

    @property
    def d(self) -> int:
        return self.public_matrix.shape[1] - 1


@dataclass(frozen=True)
class DebiasedHessian:
    """The de-biased Gram matrix and its diagnostics."""

    matrix: np.ndarray
    bias_removed: float
    min_abs_eigenvalue: float


def dgm_release(
    data: DataMatrix,
    partition: PartyPartition,
    priv: PrivacyParams,
    root_seed: int | RandomStream,
) -> DgmRelease:
    """Release data + per-party Gaussian noise.

    Party j's noise comes from the derived stream child(j), so releasing
    block-by-block and releasing the concatenated matrix are the same
    operation.  Requires the bounds check to pass (the sensitivity bound
    assumes |entry| <= 1).
    """
    check_release_input(data, partition)
    stream = as_stream(root_seed)
    noise_std = sensitivity_bound(partition.d_max) * priv.sigma
    party_streams = tuple(stream.child(j) for j in range(1, partition.m + 1))
    if noise_std == 0.0:
        public = data.values.copy()
    else:
        public = np.empty_like(data.values)
        for (a, b), party_stream in zip(partition.blocks, party_streams):
            noise = gaussian_noise(data.n, b - a, noise_std, party_stream)
            public[:, a:b] = data.values[:, a:b] + noise
    return DgmRelease(public_matrix=public, noise_std=noise_std, party_seeds=party_streams)


def dgm_train(
    rel: DgmRelease,
    d_max: int,
    priv: PrivacyParams,
    lam: float = 1e-5,
) -> tuple[np.ndarray, DebiasedHessian]:
    """Solve the de-biased normal equations on a released matrix.

    Computes H = (1/n) X'X - 4*d_max*sigma^2 * I from the public features
    X, then solves (H + lam*I) w = (1/n) X'Y.  Raises SingularSystemError
    when the regularized matrix is numerically singular (the small-
    eigenvalue failure mode).
    """
    bias = 4.0 * d_max * priv.sigma**2
    weights, hessian, min_eig = solve_normal_equations(
        rel.public_matrix[:, :-1], rel.public_matrix[:, -1], lam, scale=rel.n, shift=bias
    )
    return weights, DebiasedHessian(
        matrix=hessian, bias_removed=bias, min_abs_eigenvalue=min_eig
    )
