"""Additive-noise release with de-biased training (DGM-OLS).

Release: each party adds i.i.d. N(0, s^2) noise, s = 2*sqrt(d_max)*sigma,
to its own block, labels included, and the published matrix D + R is
the release.  ``dgm_release`` is that mechanism, literally: it streams
the noised rows into their normal equations one row block at a time.

DGM and BGM read only the Gram G = (D + R)'(D + R) of the release, and
a trial samples G from the data's own Gram D'D instead (``sample_dgm_gram``):
with D = Q T, Q an n-by-r matrix of orthonormal columns, T'T = D'D and
p = d + 1 columns,

    G = (T + Z)'(T + Z) + W  in distribution, exactly,

where Z is r-by-p i.i.d. N(0, s^2) (Q'R) and W ~ Wishart(n - r, s^2 I_p)
(the noise orthogonal to Q's columns).  Any T with r <= n rows will do;
r = p unless n < p or D is rank deficient.  That is O(p^2) draws per
release in place of n*p: a simulator of the same mechanism, in the
spirit of sufficient-statistics perturbation (Sheffet 2017; Wang 2018,
AdaSSP).

Training: the known noise variance is subtracted from the Gram matrix
before solving, which restores consistency but can leave the de-biased
matrix with eigenvalues near zero; the solver surfaces that failure mode
instead of hiding it.
"""

from __future__ import annotations

import numpy as np

from .data_model import BoundsCheck, PartyPartition
from .dp_core import PartyNoise, noise_std
from .kernels import chunk_views
from .linalg import (
    NormalEquationSum, NormalEquations, _strict_lower, gram_product, gram_root, normal_system,
)
from .streams import RandomStream

__all__ = ["data_root", "dgm_release", "dgm_system", "sample_dgm_gram"]


def dgm_release(
    data: np.ndarray, partition: PartyPartition, sigma: float, stream: RandomStream
) -> NormalEquations:
    """The normal equations of the published matrix D + R: the n-by-(d+1)
    data plus per-party Gaussian noise, party j's from the derived stream
    child(j).

    One pass over the data's row chunks checks each (``BoundsCheck``),
    adds the noise to a copy of it (``PartyNoise.add_to``) and sums the
    normal equations: the working memory is one chunk.  The published
    matrix is those noised copies, concatenated.
    """
    n, cols = data.shape
    check, noise = BoundsCheck(partition, cols), PartyNoise(partition, sigma, stream)
    release = NormalEquationSum(cols, n)
    for chunk in chunk_views(data):
        check.push(chunk)
        release.push(noise.add_to(chunk.copy()))
    return release.result()


def data_root(stats: NormalEquations) -> np.ndarray:
    """T, with at most n rows and T'T the Gram of the data [X | y]
    (``linalg.gram_root`` of the normal equations, with y'y)."""
    p = stats.xty.size + 1
    gram = np.empty((p, p))
    gram[:-1, :-1], gram[-1, -1] = stats.gram, stats.yty
    gram[:-1, -1] = gram[-1, :-1] = stats.xty
    return gram_root(gram, stats.n)


def sample_dgm_gram(
    stats: NormalEquations, root: np.ndarray, partition: PartyPartition, sigma: float,
    stream: RandomStream,
) -> NormalEquations:
    """Normal equations distributed exactly as ``dgm_release``'s, drawn
    from the data's own (``stats``), T = ``root`` = ``data_root(stats)``
    (made once for every epsilon of a trial) and one generator of
    ``stream``: G = (T + Z)'(T + Z) + W, see the module docstring.

    Z is drawn first, then W, whose n - r degrees of freedom decide how:
    by the Bartlett decomposition W = L L' (L lower triangular,
    chi-square diagonal) when n - r >= p, and as F'F from its
    (n - r)-by-p Gaussian factor F when 0 < n - r < p.  With no noise
    (s = 0) the data's equations are the release, returned as they are.
    """
    std = noise_std(partition.d_max, sigma)
    if std == 0.0:
        return stats
    r, p = root.shape
    gen = stream.generator()
    gram = gram_product(root + std * gen.standard_normal((r, p)))
    dof = stats.n - r
    if dof >= p:
        lower = np.diag(np.sqrt(gen.chisquare(dof - np.arange(p))))
        lower[_strict_lower(p)] = gen.standard_normal(p * (p - 1) // 2)
        gram += gram_product(std * lower.T)
    elif dof > 0:
        gram += gram_product(std * gen.standard_normal((dof, p)))
    return NormalEquations(gram=gram[:-1, :-1], xty=gram[-1, :-1], n=stats.n, yty=gram[-1, -1])


def dgm_system(
    release: NormalEquations, d_max: int, sigma: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """The de-biased system (H + lam*I, (1/n) X'Y) of a release, with
    H = (1/n) X'X - 4*d_max*sigma^2 * I from the public features X."""
    bias = 4.0 * d_max * sigma**2
    return normal_system(release, lam, scale=release.n, shift=bias)
