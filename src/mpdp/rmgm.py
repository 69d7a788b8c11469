"""Random mixing before the Gaussian mechanism (RMGM-OLS).

All parties share one k-by-n Rademacher matrix B and release
B D^j / sqrt(k) + R^j.  The compressed release has k rows regardless of
n, the noise is lower-order in n, and plain least squares on the release
is consistent without any de-biasing; the Gram matrix is PSD by
construction, so the small-eigenvalue failure mode of the additive-noise
release cannot occur.

B is public and drawn independently of the data, and its row r depends
only on (mixing seed, r, n).  So a trial mixes once, at the largest k it
needs (``rmgm_mix``; its pass feeds the same ``SketchSum``), and every
release takes the first k rows of that sketch, scales them by 1/sqrt(k)
and adds its own noise (``rmgm_release``).  Each release is still the Gaussian mechanism on
B_k D^j / sqrt(k): every column of B_k has norm sqrt(k), so a changed
row moves party j's block by exactly the row's change in that block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import BoundsCheck, DataMatrix, PartyPartition, feed
from .dp_core import PartyNoise, PrivacyParams
from .kernels import SketchSum, chunk_views
from .linalg import NormalEquations, solve_normal_equations
from .streams import RandomStream

__all__ = [
    "RmgmSketch", "K_GRID", "choose_k", "rmgm_mix", "rmgm_release", "rmgm_train",
]

K_GRID: tuple[int, ...] = (100, 300, 1000, 3000, 10000)


@dataclass(frozen=True)
class RmgmSketch:
    """B D for one trial's shared mixing matrix B at k_max rows, unscaled.

    The first k rows are B_k D for every k <= k_max.  ``partition`` is the
    one the data was checked against; it gives every release its party
    blocks.  Exactly one mixing seed is stored: the shared B is what makes
    the per-party blocks combinable, so per-party mixing matrices are
    unrepresentable.
    """

    product: np.ndarray
    mixing_seed: int
    n: int
    partition: PartyPartition

    @property
    def k_max(self) -> int:
        return self.product.shape[0]


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


def rmgm_mix(
    data: DataMatrix,
    partition: PartyPartition,
    k_max: int,
    stream: RandomStream,
) -> RmgmSketch:
    """Check the data and sketch it once with the shared B, at k_max rows.

    One pass over the data's row chunks, as in a trial, checks each
    (``BoundsCheck``) and adds it to the sketch (``SketchSum``).  B is
    derived from child("mixing") and never materialised.
    """
    sketch = SketchSum(stream.child("mixing").seed64(), data.n, data.d + 1, k_max)
    feed(chunk_views(data.values), BoundsCheck(partition, data.d + 1), sketch)
    return RmgmSketch(sketch.result(), sketch.seed, data.n, partition)


def rmgm_release(
    sketch: RmgmSketch, priv: PrivacyParams, k: int, stream: RandomStream
) -> np.ndarray:
    """The published k-row matrix B_k D^j / sqrt(k) + R^j of every party.

    B_k D is the first k rows of ``sketch``; party j's noise comes from
    child(j).
    """
    if not 1 <= k <= sketch.k_max:
        raise ValueError(f"k must be in [1, {sketch.k_max}], got {k}")
    if k >= sketch.n:
        warnings.warn(
            f"k={k} is not small relative to n={sketch.n}; the released noise "
            "only vanishes in the k = o(n) regime",
            stacklevel=2,
        )
    return PartyNoise(sketch.partition, priv, stream)(sketch.product[:k] / math.sqrt(k))


def rmgm_train(release: NormalEquations, lam: float) -> tuple[np.ndarray, float]:
    """Plain least squares on the compressed release.

    Solves (X'X + lam*I) w = X'Y on the normal equations of the public
    k-row matrix and returns (weights, min |eigenvalue| of the regularized Gram matrix).
    The unregularized Gram matrix is PSD by construction; a singular
    system can only arise from rank deficiency (k < d with lam = 0).
    """
    return solve_normal_equations(release, lam)
