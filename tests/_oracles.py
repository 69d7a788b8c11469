"""Independent brute-force implementations used to cross-check trainers.

Everything here is deliberately primitive: Gram matrices and right-hand
sides are accumulated with Python loops and the final system is solved
with an explicit matrix inverse.  None of the production solve path
(symmetric factorization, eigenvalue gating) is reused.

``dataset_one_shot`` and ``noise_one_shot`` make a synthetic dataset and
a party's noise in single whole-matrix draws, as the row-chunked
``gen_chunks`` and ``dp_core.PartyNoise`` must reproduce bit for bit.
``gen_matrix`` holds ``gen_chunks``' rows as one n-by-(d+1) array, for the
tests that need the data a trial only streams.

``dgm_published`` assembles the DGM release's published matrix from
``PartyNoise.add_to`` on copies of the ``chunk_views`` chunks, the noised
rows ``dgm_release`` streams into its normal equations.
``trial_sketch`` is the unscaled k-row sketch B D that a trial's pass
makes of a held matrix, bounds check included, for ``rmgm_release``.

``sketch_product_v1`` is a frozen copy of the sketch kernel that defined
numerics_version 1; the current kernel must match it bit for bit, within
one 16 384-column chunk, for every k whose rows numerics_version 2 kept
(k % 4 in {0, 1}, k % 512 != 1).  ``sketch_product_v3`` is the frozen
reference of numerics_version 3's column chunks, for those k at any n.

``csv_values`` reads a CSV into lists of Python floats, one list per
record, and moves the label last by rebuilding each row: the values
``load_csv`` must return from its float64 buffer and in-place move.
"""

import csv

import numpy as np

from mpdp.data_model import BoundsCheck, feed
from mpdp.dp_core import PartyNoise
from mpdp.kernels import SketchSum, chunk_views, rademacher_tile
from mpdp.synthetic import gen_chunks


def gram_loops(x):
    n, d = x.shape
    g = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            s = 0.0
            for i in range(n):
                s += x[i, a] * x[i, b]
            g[a, b] = s
    return g


def xty_loops(x, y):
    n, d = x.shape
    c = np.zeros(d)
    for a in range(d):
        s = 0.0
        for i in range(n):
            s += x[i, a] * y[i]
        c[a] = s
    return c


def ols_oracle(x, y, lam):
    """Explicit inverse of ((1/n) X'X + lam*I) applied to (1/n) X'Y."""
    n, d = x.shape
    system = gram_loops(x) / n + lam * np.eye(d)
    return np.linalg.inv(system) @ (xty_loops(x, y) / n)


def dgm_oracle(public, d_max, sigma, lam):
    """De-biased normal equations on a released matrix, by explicit inverse."""
    x, y = public[:, :-1], public[:, -1]
    n, d = x.shape
    system = gram_loops(x) / n - 4.0 * d_max * sigma**2 * np.eye(d) + lam * np.eye(d)
    return np.linalg.inv(system) @ (xty_loops(x, y) / n)


def rmgm_oracle(public, lam):
    """Plain least squares on a compressed release, by explicit inverse."""
    x, y = public[:, :-1], public[:, -1]
    d = x.shape[1]
    system = gram_loops(x) + lam * np.eye(d)
    return np.linalg.inv(system) @ xty_loops(x, y)


def norm_loops(v):
    s = 0.0
    for value in v:
        s += value * value
    return s**0.5


def sketch_product_v1(seed, data, k):
    """The sketch kernel as it defined numerics_version 1: 512-row tiles,
    one strided-column copy per tile per column of ``data``."""
    n, cols = data.shape
    out = np.zeros((k, cols))
    for r0 in range(0, k, 512):
        r1 = min(r0 + 512, k)
        for i0 in range(0, n, 1 << 16):
            i1 = min(i0 + (1 << 16), n)
            tile = rademacher_tile(seed, r0, r1 - r0, i0, i1 - i0)
            for j in range(cols):
                out[r0:r1, j] += tile @ np.ascontiguousarray(data[i0:i1, j])
    return out


def sketch_product_v3(seed, data, k):
    """B @ data with B materialised per 16 384-column chunk, one np.dot
    per column of ``data``, the chunks' products summed in chunk order."""
    n, cols = data.shape
    out = np.zeros((k, cols))
    for i0 in range(0, n, 1 << 14):
        i1 = min(i0 + (1 << 14), n)
        b = rademacher_tile(seed, 0, k, i0, i1 - i0)
        for j in range(cols):
            out[:, j] += np.dot(b, np.ascontiguousarray(data[i0:i1, j]))
    return out


def dgm_published(data, partition, sigma, stream):
    """The n-row matrix D + R whose normal equations ``dgm_release`` returns."""
    noise = PartyNoise(partition, sigma, stream)
    return np.concatenate([noise.add_to(chunk.copy()) for chunk in chunk_views(data)])


def trial_sketch(data, partition, k, stream):
    """B D at k rows, B from ``stream.child("mixing")``, as a trial's pass
    checks and sketches its data."""
    mixer = SketchSum(stream.child("mixing").seed64(), data.shape[1], {len(data): k})
    feed(chunk_views(data), BoundsCheck(partition, data.shape[1]), mixer)
    return mixer.result()


def gen_matrix(n, w_star, stream):
    """The rows of ``gen_chunks`` as one array: its chunks share one
    buffer, so each is copied into the matrix as it comes."""
    values = np.empty((n, np.size(w_star) + 1))
    row = 0
    for chunk in gen_chunks(n, w_star, stream):
        values[row : row + chunk.shape[0]] = chunk
        row += chunk.shape[0]
    return values


def dataset_one_shot(n, w_star, stream):
    """Features in one draw of n rows rounded up to a whole group of 4,
    labels as one product over them, side by side; the first n rows."""
    features = stream.generator().uniform(-1.0, 1.0, size=(-(-n // 4) * 4, w_star.size))
    return np.column_stack([features, features @ w_star])[:n]


def noise_one_shot(rows, cols, std, stream):
    """One party's noise: a single (rows, cols) N(0, std^2) draw from its stream."""
    return stream.generator().standard_normal((rows, cols)) * std


def csv_values(path, label_column=None):
    """A valid CSV's cells as float(cell), label column moved last."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        names = [name.strip() for name in next(reader)]
        rows = [[float(cell) for cell in raw] for raw in reader]
    if label_column is not None:
        at = names.index(label_column)
        rows = [row[:at] + row[at + 1:] + [row[at]] for row in rows]
    return np.array(rows)
