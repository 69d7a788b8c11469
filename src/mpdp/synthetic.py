"""Synthetic regression data with a known ground-truth weight vector.

Features are i.i.d. uniform on [-1, 1]; weights are uniform on
[-1/d, 1/d], so labels y = w.x satisfy |y| <= 1 without clipping and the
bounded-entries requirement holds by construction.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .kernels import _COL_CHUNK, _whole_groups
from .linalg import _block_rows
from .streams import RandomStream

__all__ = ["column_names", "gen_chunks", "gen_ground_truth"]


def gen_ground_truth(d: int, stream: RandomStream) -> np.ndarray:
    """The generating weight vector w*: d independent U(-1/d, 1/d) draws."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return stream.generator().uniform(-1.0 / d, 1.0 / d, size=d)


def column_names(d: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(d)) + ("y",)


def gen_chunks(n: int, w_star: np.ndarray, stream: RandomStream) -> Iterator[np.ndarray]:
    """n rows of U(-1, 1) features with noiseless labels y = w*.x, in
    ``chunk_views`` chunks that share one buffer (copy what you keep).
    The draws continue one generator across chunks, so the features are
    the first n rows of one draw from ``stream``; while a chunk is out the
    buffer is all the generator holds.  The labels are one
    product per ``linalg._block_rows`` block (a power of two, so whole
    groups of 4 rows: gemv rounds a trailing 1-3 rows differently), and
    the last chunk draws and labels its rows up to a whole group, then
    drops the extra ones.  So a row's bits do not depend on n, the first n
    rows are those at any larger n, and under any BLAS thread count they
    are the bits of one product over whole groups on one thread."""
    w_star = np.asarray(w_star, dtype=np.float64)
    if w_star.ndim != 1 or w_star.size < 1:
        raise ValueError("w_star must be a non-empty vector")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen, d = stream.generator(), w_star.size
    block_rows = _block_rows(d + 1)
    buffer = np.empty((min(_whole_groups(n), _COL_CHUNK), d + 1))
    for r0 in range(0, n, _COL_CHUNK):
        rows = min(_COL_CHUNK, n - r0)
        chunk = buffer[: _whole_groups(rows)]
        # U(-1, 1) is -1 + 2u, and 2u is exact: uniform(-1.0, 1.0)'s bits,
        # without its per-entry loop
        draws = gen.random((chunk.shape[0], d))
        draws *= 2.0
        np.subtract(draws, 1.0, out=chunk[:, :d])
        del draws  # not held while the chunk is out
        for b0 in range(0, chunk.shape[0], block_rows):
            block = chunk[b0 : b0 + block_rows]
            block[:, d] = block[:, :d] @ w_star
        yield chunk[:rows]
