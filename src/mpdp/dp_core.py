"""Privacy primitives shared by both release mechanisms.

Noise-scale calibration for the Gaussian mechanism, the per-row L2
sensitivity bound for bounded party blocks, seeded Gaussian noise
matrices and the per-party noise step both releases end with.  The
shared Rademacher mixing matrix lives in ``kernels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import PartyPartition
from .streams import RandomStream

__all__ = ["PrivacyParams", "calibrate", "sensitivity_bound", "gaussian_noise", "add_party_noise"]


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) privacy budget with its derived noise multiplier.

    ``sigma`` is the Gaussian-mechanism multiplier sqrt(2*ln(1.25/delta))/epsilon;
    a release's per-entry noise std is ``sensitivity_bound(d_max) * sigma``.
    """

    epsilon: float
    delta: float
    sigma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")


def calibrate(epsilon: float, delta: float) -> PrivacyParams:
    """Noise multiplier for an (epsilon, delta) budget.

    Requires 0 < epsilon <= 1 (the Gaussian-mechanism guarantee holds only
    in that range) and 0 < delta < 1.  Deterministic; uses natural log.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    sigma = math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon
    return PrivacyParams(epsilon=float(epsilon), delta=float(delta), sigma=sigma)


def sensitivity_bound(d_max: int) -> float:
    """Per-row L2 sensitivity bound 2*sqrt(d_max) for entries bounded by 1."""
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    return 2.0 * math.sqrt(d_max)


def gaussian_noise(
    rows: int,
    cols: int,
    std: float,
    rng: RandomStream | np.random.Generator,
) -> np.ndarray:
    """rows-by-cols matrix of independent N(0, std^2) draws.

    std = 0 yields the exact zero matrix.  The same stream always yields
    the same matrix.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    if std < 0:
        raise ValueError(f"std must be non-negative, got {std}")
    if isinstance(rng, RandomStream):
        rng = rng.generator()
    if std == 0.0:
        return np.zeros((rows, cols))
    entries = rng.standard_normal((rows, cols))
    entries *= std
    return entries


def add_party_noise(
    matrix: np.ndarray,
    partition: PartyPartition,
    priv: PrivacyParams,
    stream: RandomStream,
) -> tuple[float, tuple[RandomStream, ...]]:
    """The Gaussian mechanism of both releases, applied in place.

    Party j adds N(0, std^2) noise, std = sensitivity_bound(d_max) * sigma,
    drawn from ``stream.child(j)`` to its own column block of ``matrix``.
    Returns (std, the per-party streams) so a release can be rebuilt.
    """
    std = sensitivity_bound(partition.d_max) * priv.sigma
    party_streams = tuple(stream.child(j) for j in range(1, partition.m + 1))
    if std > 0.0:
        for (a, b), party_stream in zip(partition.blocks, party_streams):
            matrix[:, a:b] += gaussian_noise(matrix.shape[0], b - a, std, party_stream)
    return std, party_streams
