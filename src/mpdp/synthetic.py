"""Synthetic regression data with a known ground-truth weight vector.

Features are i.i.d. uniform on [-1, 1]; weights are uniform on
[-1/d, 1/d], so labels y = w.x satisfy |y| <= 1 without clipping and the
bounded-entries requirement holds by construction.
"""

from __future__ import annotations

import numpy as np

from .data_model import DataMatrix, _row_chunks
from .streams import RandomStream

__all__ = ["gen_ground_truth", "gen_dataset"]


def gen_ground_truth(d: int, stream: RandomStream) -> np.ndarray:
    """The generating weight vector w*: d independent U(-1/d, 1/d) draws."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return stream.generator().uniform(-1.0 / d, 1.0 / d, size=d)


def gen_dataset(n: int, w_star: np.ndarray, stream: RandomStream) -> DataMatrix:
    """n rows of U(-1, 1) features with noiseless labels y = w*.x."""
    w_star = np.asarray(w_star, dtype=np.float64)
    if w_star.ndim != 1 or w_star.size < 1:
        raise ValueError("w_star must be a non-empty vector")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = w_star.size
    values = np.empty((n, d + 1))
    gen = stream.generator()
    # successive draws continue one Philox stream, so the chunks hold
    # exactly the features of a single (n, d) draw
    for r0, r1 in _row_chunks(n, d + 1):
        values[r0:r1, :d] = gen.uniform(-1.0, 1.0, size=(r1 - r0, d))
    # one product over every row: gemv rounds the last rows of each call
    # differently, so labels computed chunk by chunk would change bits
    values[:, d] = values[:, :d] @ w_star
    names = tuple(f"x{i + 1}" for i in range(d)) + ("y",)
    return DataMatrix(values, names)
