"""Random mixing before the Gaussian mechanism (RMGM-OLS).

All parties share one k-by-n Rademacher matrix B and release
B D^j / sqrt(k) + R^j.  The compressed release has k rows regardless of
n, the noise is lower-order in n, and plain least squares on the release
is consistent without any de-biasing; the Gram matrix is PSD by
construction, so the small-eigenvalue failure mode of the additive-noise
release cannot occur.

B is public and drawn independently of the data, and its row r depends
only on (mixing seed, r, n).  So a trial mixes once, at the largest k it
needs (a ``kernels.SketchSum`` in its one pass over the data), and every
release takes the first k rows of that sketch, scales them by 1/sqrt(k)
and adds its own noise (``rmgm_release``).  Each release is still the
Gaussian mechanism on B_k D^j / sqrt(k): every column of B_k has norm
sqrt(k), so a changed row moves party j's block by exactly the row's
change in that block.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .data_model import PartyPartition
from .dp_core import PartyNoise, PrivacyParams
from .linalg import NormalEquations, normal_system
from .streams import RandomStream

__all__ = ["K_GRID", "choose_k", "rmgm_release", "rmgm_system"]

K_GRID: tuple[int, ...] = (100, 300, 1000, 3000, 10000)


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
    product: np.ndarray, n: int, partition: PartyPartition, priv: PrivacyParams, k: int,
    stream: RandomStream,
) -> np.ndarray:
    """The published k-row matrix B_k D^j / sqrt(k) + R^j of every party.

    ``product`` is the unscaled sketch B D of the n data rows at k_max
    rows (``SketchSum.result()``); B_k D is its first k rows.  Party j's
    noise on its ``partition`` block comes from child(j).  The noise is
    added in place to the scaled rows, so a release allocates its k-row
    result and one party's noise draw.
    """
    if not 1 <= k <= product.shape[0]:
        raise ValueError(f"k must be in [1, {product.shape[0]}], got {k}")
    if k >= n:
        warnings.warn(
            f"k={k} is not small relative to n={n}; the released noise "
            "only vanishes in the k = o(n) regime",
            stacklevel=2,
        )
    return PartyNoise(partition, priv, stream).add_to(product[:k] / math.sqrt(k))


def rmgm_system(release: NormalEquations, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The system (X'X + lam*I, X'Y) of the public k-row matrix's normal
    equations: plain least squares, no scaling or de-biasing.  X'X is PSD,
    so the system can be singular only when k < d and lam = 0."""
    return normal_system(release, lam)
