"""Random mixing before the Gaussian mechanism (RMGM-OLS).

All parties share one k-by-n Rademacher matrix B and release
B D^j / sqrt(k) + R^j.  The compressed release has k rows regardless of
n, the noise is lower-order in n, and plain least squares on the release
is consistent without any de-biasing; the Gram matrix is PSD by
construction, so the small-eigenvalue failure mode of the additive-noise
release cannot occur.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import DataMatrix, PartyPartition, check_release_input
from .dp_core import PrivacyParams, add_party_noise
from .kernels import sketch_product
from .linalg import solve_normal_equations
from .streams import RandomStream, as_stream

__all__ = ["RmgmRelease", "K_GRID", "choose_k", "rmgm_release", "rmgm_train"]

K_GRID: tuple[int, ...] = (100, 300, 1000, 3000, 10000)


@dataclass(frozen=True)
class RmgmRelease:
    """A k-row compressed noisy release.

    Exactly one mixing seed is stored: the shared matrix B is what makes
    the per-party blocks combinable, so a release with per-party mixing
    matrices is unrepresentable.
    """

    public_matrix: np.ndarray
    k: int
    mixing_seed: int
    noise_std: float
    party_seeds: tuple[RandomStream, ...]

    @property
    def d(self) -> int:
        return self.public_matrix.shape[1] - 1


def choose_k(
    n: int,
    sigma: float,
    d: int | None = None,
    d_max: int | None = None,
    mode: str = "synthetic",
    grid: tuple[int, ...] | None = None,
) -> tuple[int, ...]:
    """The compressed row counts k to release with, as a tuple.

    - "synthetic": (k,) with k = max(1, round(sqrt(n)/sigma)), the scaling
      used for the convergence experiments.
    - "grid": the candidate list (default ``K_GRID``) for the harness to
      sweep; the best k is picked downstream by test MSE.
    - "rate": (k,) with k = max(1, round(sqrt(n*d) / (sqrt(d_max)*sigma))),
      the rate-optimal scaling including the dimension factors.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mode == "grid":
        return tuple(grid) if grid is not None else K_GRID
    if sigma <= 0:
        raise ValueError(f"sigma must be positive in {mode!r} mode, got {sigma}")
    if mode == "synthetic":
        return (max(1, round(math.sqrt(n) / sigma)),)
    if mode == "rate":
        if d is None or d_max is None:
            raise ValueError("rate mode requires d and d_max")
        return (max(1, round(math.sqrt(n * d) / (math.sqrt(d_max) * sigma))),)
    raise ValueError(f"unknown k mode {mode!r}")


def rmgm_release(
    data: DataMatrix,
    partition: PartyPartition,
    priv: PrivacyParams,
    k: int,
    root_seed: int | RandomStream,
) -> RmgmRelease:
    """Release B D^j / sqrt(k) + R^j for every party, with one shared B.

    B is derived from child("mixing") and streamed through the product
    (never materialised); party j's noise comes from child(j).
    """
    check_release_input(data, partition)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= data.n:
        warnings.warn(
            f"k={k} is not small relative to n={data.n}; the released noise "
            "only vanishes in the k = o(n) regime",
            stacklevel=2,
        )
    stream = as_stream(root_seed)
    mixing_seed = stream.child("mixing").seed64()
    mixed = sketch_product(mixing_seed, data.values, k)
    mixed /= math.sqrt(k)
    noise_std, party_streams = add_party_noise(mixed, partition, priv, stream)
    return RmgmRelease(
        public_matrix=mixed,
        k=k,
        mixing_seed=mixing_seed,
        noise_std=noise_std,
        party_seeds=party_streams,
    )


def rmgm_train(rel: RmgmRelease, lam: float = 1e-5) -> tuple[np.ndarray, float]:
    """Plain least squares on the compressed release.

    Solves (X'X + lam*I) w = X'Y on the public k-by-d feature block and
    returns (weights, min |eigenvalue| of the regularized Gram matrix).
    The unregularized Gram matrix is PSD by construction; a singular
    system can only arise from rank deficiency (k < d with lam = 0).
    """
    return solve_normal_equations(rel.public_matrix[:, :-1], rel.public_matrix[:, -1], lam)
