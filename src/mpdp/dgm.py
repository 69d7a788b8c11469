"""Additive-noise release with de-biased training (DGM-OLS).

Release: each party adds i.i.d. N(0, 4*d_max*sigma^2) noise to its own
block, labels included, and the published matrix is the release.  The
trainers need only its X'X and X'y, so the release is streamed into
them one row block at a time and the n-row public matrix is never held.
Training: the known noise variance is subtracted from the Gram matrix
before solving, which restores consistency but can leave the de-biased
matrix with eigenvalues near zero; the solver surfaces that failure mode
instead of hiding it.
"""

from __future__ import annotations

import numpy as np

from .data_model import BoundsCheck, DataMatrix, PartyPartition, feed
from .dp_core import PartyNoise, PrivacyParams
from .kernels import chunk_views
from .linalg import NormalEquationSum, NormalEquations, solve_normal_equations
from .streams import RandomStream

__all__ = ["dgm_release", "dgm_train"]


def dgm_release(
    data: DataMatrix, partition: PartyPartition, priv: PrivacyParams, stream: RandomStream
) -> NormalEquations:
    """The normal equations of the published matrix D + R: the data plus
    per-party Gaussian noise, party j's from the derived stream child(j).

    One pass over the data's row chunks, as in a trial, checks each
    (``BoundsCheck``), adds the noise (``PartyNoise``) and sums the normal
    equations: the working memory is one chunk.  The published matrix is
    those chunks through ``PartyNoise(partition, priv, stream)``,
    concatenated.
    """
    release = NormalEquationSum(data.d + 1, data.n, PartyNoise(partition, priv, stream))
    feed(chunk_views(data.values), BoundsCheck(partition, data.d + 1), release)
    return release.result()


def dgm_train(
    release: NormalEquations, d_max: int, priv: PrivacyParams, lam: float
) -> tuple[np.ndarray, float]:
    """Solve the de-biased normal equations of a release.

    Computes H = (1/n) X'X - 4*d_max*sigma^2 * I from the public features
    X, then solves (H + lam*I) w = (1/n) X'Y and returns (weights, min
    |eigenvalue| of H + lam*I).  Raises SingularSystemError when the
    regularized matrix is numerically singular (the small-eigenvalue
    failure mode).
    """
    bias = 4.0 * d_max * priv.sigma**2
    return solve_normal_equations(release, lam, scale=release.n, shift=bias)
