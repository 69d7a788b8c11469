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

__all__ = ["PartyNoise", "PrivacyParams", "calibrate", "sensitivity_bound", "gaussian_noise"]


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
    in that range), 0 < delta < 1 and a finite sigma^2 (DGM's de-biasing
    subtracts it).  Deterministic; uses natural log.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    sigma = math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon
    if not math.isfinite(sigma * sigma):
        raise ValueError(f"epsilon {epsilon:g} is too small: the noise variance overflows")
    return PrivacyParams(epsilon=float(epsilon), delta=float(delta), sigma=sigma)


def sensitivity_bound(d_max: int) -> float:
    """Per-row L2 sensitivity bound 2*sqrt(d_max) for entries bounded by 1."""
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    return 2.0 * math.sqrt(d_max)


def gaussian_noise(rows: int, cols: int, std: float, gen: np.random.Generator) -> np.ndarray:
    """rows-by-cols matrix of independent N(0, std^2) draws from ``gen``.

    std = 0 yields the exact zero matrix and draws nothing.  Successive
    calls continue the generator's stream, so drawing a matrix in row
    chunks yields exactly the rows of one draw.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    if std < 0:
        raise ValueError(f"std must be non-negative, got {std}")
    if std == 0.0:
        return np.zeros((rows, cols))
    entries = gen.standard_normal((rows, cols))
    entries *= std
    return entries


class PartyNoise:
    """The Gaussian mechanism of both releases, added in place to a
    matrix's row blocks in order (``add_to``).  Party j adds N(0, std^2)
    noise to its own column block, std = sensitivity_bound(d_max) * sigma:
    the rows of one (n, d_j) draw from ``stream.child(j)``, whose generator
    lives across calls, so whoever holds j's stream can rebuild (and
    remove) j's noise.
    """

    def __init__(self, partition: PartyPartition, priv: PrivacyParams, stream: RandomStream):
        self.partition = partition
        self.std = sensitivity_bound(partition.d_max) * priv.sigma
        n_gens = partition.m if self.std > 0.0 else 0
        self._gens = [stream.child(j).generator() for j in range(1, n_gens + 1)]

    def add_to(self, block: np.ndarray) -> np.ndarray:
        """Add every party's noise to ``block`` in place; returns ``block``."""
        for gen, (a, b) in zip(self._gens, self.partition.blocks):
            noise = gaussian_noise(block.shape[0], b - a, self.std, gen)
            # one column at a time: a strided block[:, a:b] += noise runs
            # one inner loop of b - a entries per row, 3x slower
            for c in range(a, b):
                block[:, c] += noise[:, c - a]
            del noise  # before the next party's draw: one draw is held at a time
        return block
