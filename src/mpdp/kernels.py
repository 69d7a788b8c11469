"""Hot numeric kernels for the Rademacher mixing matrix.

The k-by-n mixing matrix is defined entry-wise by a counter-based
splitmix64 scheme: one mixed 64-bit word covers 64 consecutive columns
(word index ``r * ceil(n/64) + col//64``, entry = bit ``col % 64``,
bit 1 -> +1.0, bit 0 -> -1.0).  Because entries are pure integer
functions of (seed, row, column, n), any tile of the matrix can be
generated independently, which lets the sketch product ``B @ D`` stream
through D without ever materialising B (k*n can reach 3e10 entries).
"""

from __future__ import annotations

import sys
from collections.abc import Iterator

import numpy as np

__all__ = [
    "SketchSum", "backend_name", "chunk_views", "rademacher_matrix", "rademacher_tile",
    "sketch_product",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Fixed tiling: the reduction order (and therefore the exact float result)
# does not depend on the call site.  A tile is a power-of-two number of
# rows between _MIN_ROWS and _MAX_ROWS, the most whose tile fits in
# _TILE_BYTES, by at most _COL_CHUNK columns, and every column of D takes
# one matvec with it.  _COL_CHUNK is the widest a _MIN_ROWS tile can be
# within _TILE_BYTES, so every tile is at most 1 MiB and stays in a 2 MiB
# per-core L2 across the matvecs of all of D's columns; past n = 16 384
# the tile is 8 rows by 16 384 columns.  Each column chunk adds its
# matvec into the result, in chunk order.
#
# OpenBLAS's gemv reduces rows in groups of _ROW_GROUP, and rounds a
# trailing group of 2 or 3 rows differently; numpy hands a 1-row product
# to ``dot``, which rounds differently again and is split across BLAS
# threads.  So k is rounded up to a whole number of groups and the extra
# (at most 3) regenerated rows are dropped: every tile starts on a group
# boundary and holds whole groups, row r's bits depend only on
# (seed, r, D), and the k-row sketch is the first k rows of any larger one.
_ROW_GROUP = 4
_MIN_ROWS = 8
_MAX_ROWS = 512
_TILE_BYTES = 1 << 20
_COL_CHUNK = _TILE_BYTES // (8 * _MIN_ROWS)

# A sketch makes its signs a band of whole tiles at a time: one splitmix
# pass over the band's words (about _BAND_WORDS words, 128 KiB, and at
# least one tile), so numpy's per-call cost of that arithmetic is shared
# by the band's tiles.  Each tile's bytes are then unpacked flat, formed
# into int8 signs and copied into one float64 tile buffer per push: a
# fresh 1 MiB tile per tile is re-faulted by the allocator, and a buffer
# kept for the sketch's life is resident while the trial's other
# consumers run (1.3 MiB more peak RSS on the desk grid with two workers).
# The tiles and their matvecs do not depend on the band, so neither do
# the bits.
_BAND_WORDS = 1 << 14

# The tile buffer and the transposed chunk start on a cache line.  From
# malloc they start wherever the allocator's history puts them, 16 bytes
# past a page when freshly mapped, and a gemv over an (8, 16 000) tile
# whose rows start 16 or 48 bytes past a 64-byte line took about 1.25x
# as long as over one whose rows start on it (OpenBLAS, one thread).
# The gemv bits did not depend on either operand's offset.
_ALIGN = 64


def _aligned_empty(size: int) -> np.ndarray:
    """An uninitialised float64 vector of ``size`` entries starting on an
    _ALIGN-byte boundary."""
    raw = np.empty(size + _ALIGN // 8)
    start = (-raw.ctypes.data % _ALIGN) // 8
    return raw[start : start + size]


# backend_name, rademacher_matrix and sketch_product: the package itself
# does not call them, but perfbench/child.py's probe and kernel check
# import them on every benchmark run, which fails without them.
def backend_name() -> str:
    """The sketch kernel in use (numpy is the only one)."""
    return "numpy"


def _splitmix_words(seed: int, nblk: int, row0: int, rows: int, b0: int, b1: int) -> np.ndarray:
    """The (rows, b1 - b0) mixed words ``b0:b1`` of rows ``row0:row0 + rows``
    of a matrix with ``nblk`` words per row, in little-endian byte order."""
    r = np.arange(row0, row0 + rows, dtype=np.uint64)[:, None]
    b = np.arange(b0, b1, dtype=np.uint64)[None, :]
    z = np.uint64(seed) + (r * np.uint64(nblk) + b + np.uint64(1)) * _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    if sys.byteorder == "big":  # pragma: no cover - little-endian everywhere we run
        z = z.byteswap()
    return z


def _signs(words: np.ndarray, off: int, cols: int) -> np.ndarray:
    """Entries ``off:off + cols`` of each row of ``words`` as int8 signs."""
    # bit i of byte j is entry 8j + i of the row's 64 * words entries
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    # 2 * bit - 1 in uint8 (0 wraps to 255, read back as int8 -1): exact,
    # and one int8 -> float64 conversion is cheaper than doing it in floats
    bits *= np.uint8(2)
    bits -= 1
    return bits[:, off : off + cols].view(np.int8)


def rademacher_tile(seed: int, n: int, row0: int, rows: int, col0: int, cols: int) -> np.ndarray:
    """One tile of the k-by-n mixing matrix, as float64 entries in {-1, +1}.

    ``n`` is the full column count of the conceptual matrix; tiles taken
    at any offset agree entry-wise with the full matrix.
    """
    b0 = col0 // 64
    words = _splitmix_words(seed, (n + 63) // 64, row0, rows, b0, (col0 + cols - 1) // 64 + 1)
    return _signs(words, col0 - b0 * 64, cols).astype(np.float64)


def rademacher_matrix(seed: int, k: int, n: int) -> np.ndarray:
    """The full k-by-n mixing matrix (use only when k*n is small)."""
    return rademacher_tile(seed, n, 0, k, 0, n)


def _row_tiles(k: int, width: int) -> list[tuple[int, int]]:
    """The (start, end) row ranges of the sketch tiles for k rows of
    tiles at most ``width`` columns wide; the last one ends at k rounded
    up to a multiple of _ROW_GROUP."""
    rows = _MAX_ROWS
    while rows > _MIN_ROWS and rows * width * 8 > _TILE_BYTES:
        rows //= 2
    padded = -(-k // _ROW_GROUP) * _ROW_GROUP
    return [(r0, min(r0 + rows, padded)) for r0 in range(0, padded, rows)]


def chunk_views(matrix: np.ndarray) -> Iterator[np.ndarray]:
    """Row views of D = ``matrix`` in its column chunks: the chunks a trial streams."""
    return (matrix[r0 : r0 + _COL_CHUNK] for r0 in range(0, matrix.shape[0], _COL_CHUNK))


class SketchSum:
    """``B @ D`` for the seed-defined k-by-n mixing matrix B, with D's
    column chunks (``chunk_views``) pushed in order, none of them kept.
    The k-by-c result is bit for bit the first k rows of that for any
    larger k.  B is never materialised: the working memory is the result,
    one band of sign words (about 128 KiB), one float64 tile (at most
    1 MiB) and one (c, chunk) transpose buffer."""

    def __init__(self, seed: int, n: int, cols: int, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.seed, self.n, self.k, self._i0 = int(seed), n, k, 0
        width = min(n, _COL_CHUNK)
        tiles = _row_tiles(k, width)
        per_band = max(1, _BAND_WORDS // (tiles[0][1] * -(-width // 64)))
        self._bands = [tiles[t : t + per_band] for t in range(0, len(tiles), per_band)]
        self._out = np.zeros((tiles[-1][1], cols), dtype=np.float64)
        # reused: a fresh 1.4 MiB copy per chunk made glibc re-fault its heap
        self._transposed = _aligned_empty(cols * width).reshape(cols, width)

    def push(self, chunk: np.ndarray) -> None:
        i0, i1 = self._i0, self._i0 + chunk.shape[0]
        width = i1 - i0
        if width != min(_COL_CHUNK, self.n - i0):
            raise ValueError(f"rows {i0}:{i1} are not a column chunk of {self.n} columns")
        transposed = self._transposed[:, :width]
        transposed[...] = chunk.T  # each row, a matvec operand, is contiguous
        # i0 is a multiple of _COL_CHUNK, so the chunk starts on a word
        b0, b1, nblk = i0 // 64, (i1 + 63) // 64, (self.n + 63) // 64
        buffer = _aligned_empty(self._bands[0][0][1] * width)  # the tallest tile, the first
        for band in self._bands:
            r0 = band[0][0]
            words = _splitmix_words(self.seed, nblk, r0, band[-1][1] - r0, b0, b1)
            for t0, t1 in band:
                # a prefix of the flat buffer, so C-contiguous whatever its shape
                tile = buffer[: (t1 - t0) * width].reshape(t1 - t0, width)
                np.copyto(tile, _signs(words[t0 - r0 : t1 - r0], 0, width))
                # one matvec per column: the bits of each output column must
                # not depend on which other columns were sketched alongside
                # it (party blocks are sliced out and reconstructed bitwise).
                # np.dot, not @: both run the same gemv with the same bits,
                # but matmul holds the GIL through it, so --workers threads
                # could not run their matvecs at the same time
                for j, column in enumerate(transposed):
                    self._out[t0:t1, j] += np.dot(tile, column)
        self._i0 = i1

    def result(self) -> np.ndarray:
        return self._out[: self.k]


def sketch_product(seed: int, data: np.ndarray, k: int) -> np.ndarray:
    """``B @ data`` for an (n, c) float64 ``data``: its column chunks
    pushed through ``SketchSum``."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be 2-dimensional")
    sketch = SketchSum(seed, *data.shape, k)
    for chunk in chunk_views(data):
        sketch.push(chunk)
    return sketch.result()
