"""Synthetic regression data with a known ground-truth weight vector.

Features are i.i.d. uniform on [-1, 1]; weights are uniform on
[-1/d, 1/d], so labels y = w.x satisfy |y| <= 1 without clipping and the
bounded-entries requirement holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import DataMatrix
from .streams import RandomStream

__all__ = ["GroundTruth", "gen_ground_truth", "gen_dataset"]


@dataclass(frozen=True)
class GroundTruth:
    """The generating weight vector; every |w_i| <= 1/d."""

    w_star: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w_star, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("w_star must be a non-empty vector")
        object.__setattr__(self, "w_star", w)

    @property
    def d(self) -> int:
        return self.w_star.size


def gen_ground_truth(d: int, stream: RandomStream) -> GroundTruth:
    """d independent U(-1/d, 1/d) draws."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return GroundTruth(stream.generator().uniform(-1.0 / d, 1.0 / d, size=d))


def gen_dataset(n: int, truth: GroundTruth, stream: RandomStream) -> DataMatrix:
    """n rows of U(-1, 1) features with noiseless labels y = w.x."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    features = stream.generator().uniform(-1.0, 1.0, size=(n, truth.d))
    labels = features @ truth.w_star
    names = tuple(f"x{i + 1}" for i in range(truth.d)) + ("y",)
    return DataMatrix(np.column_stack([features, labels]), names)
