"""Dataset representation, bounds validation, vertical partitioning,
min-max normalization and train/test splitting.

Conventions: rows are aligned subjects, the label is the last column,
and all entries must be finite.  Party blocks are contiguous column
ranges; block j of a partition is owned by party j (1-based).
"""

from __future__ import annotations

import csv
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .kernels import chunk_views
from .streams import RandomStream

__all__ = [
    "BoundsCheck", "DataMatrix", "PartyPartition", "DataFormatError", "feed",
    "partition_evenly", "split_normalized", "load_csv", "write_csv",
]


def feed(chunks: Iterable[np.ndarray], *consumers) -> None:
    """Push each row chunk, in order, to every consumer in turn."""
    for chunk in chunks:
        for consumer in consumers:
            consumer.push(chunk)


class DataFormatError(ValueError):
    """A fatal ingestion problem, with 1-based row/column context."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        self.row = row
        self.column = column
        where = ", ".join(f"{name} {at}" for name, at in (("row", row), ("column", column))
                          if at is not None)
        super().__init__(message + (f" ({where})" if where else ""))


@dataclass(frozen=True)
class DataMatrix:
    """A dense n-by-(d+1) real matrix with named columns, label last."""

    values: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("values must be a 2-dimensional matrix")
        if values.shape[1] != len(self.column_names):
            raise ValueError(
                f"{values.shape[1]} columns but {len(self.column_names)} column names"
            )
        if values.shape[1] < 1 or values.shape[0] < 1:
            raise ValueError("matrix must have at least one row and one column")
        if not all(np.isfinite(block).all() for block in chunk_views(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(f"non-finite entry at row {bad[0]}, column {bad[1]}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "column_names", tuple(self.column_names))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        """Feature count (total columns minus the label)."""
        return self.values.shape[1] - 1

    def features(self) -> np.ndarray:
        return self.values[:, :-1]

    def labels(self) -> np.ndarray:
        return self.values[:, -1]


@dataclass(frozen=True)
class PartyPartition:
    """Assignment of contiguous column ranges to m >= 2 parties.

    ``blocks`` holds half-open [start, stop) column ranges that are
    ordered, disjoint and cover all d+1 columns.
    """

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        blocks = tuple((int(a), int(b)) for a, b in self.blocks)
        if len(blocks) < 2:
            raise ValueError("a partition needs at least 2 parties")
        if blocks[0][0] != 0:
            raise ValueError("blocks must start at column 0")
        for (a, b), (c, _) in zip(blocks, blocks[1:]):
            if b != c:
                raise ValueError("blocks must be contiguous and ordered")
        if any(b <= a for a, b in blocks):
            raise ValueError("every party must own at least one column")
        object.__setattr__(self, "blocks", blocks)

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def d_js(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in self.blocks)

    @property
    def d_max(self) -> int:
        return max(self.d_js)

    @property
    def total_columns(self) -> int:
        return self.blocks[-1][1]


def partition_evenly(d_plus_1: int, m: int) -> PartyPartition:
    """Split d+1 columns into m contiguous blocks with widths differing
    by at most one; earlier blocks take the remainder."""
    if m < 2:
        raise ValueError(f"need at least 2 parties, got {m}")
    if d_plus_1 < m:
        raise ValueError(f"cannot split {d_plus_1} columns among {m} parties")
    base, rem = divmod(d_plus_1, m)
    blocks = []
    start = 0
    for j in range(m):
        width = base + (1 if j < rem else 0)
        blocks.append((start, start + width))
        start += width
    return PartyPartition(blocks=tuple(blocks))


class BoundsCheck:
    """The precondition of every release, on row chunks pushed in order:
    the sensitivity bound assumes a partition that covers every column and
    finite entries with |entry| <= 1.  A violation raises ValueError with
    the failing chunk's offender count and the first offender in row-major
    order, as a 0-based (row, col) index into the whole matrix."""

    def __init__(self, partition: PartyPartition, cols: int):
        if partition.total_columns != cols:
            raise ValueError("partition does not cover this matrix")
        self.rows = 0

    def push(self, chunk: np.ndarray) -> None:
        mask = ~(np.abs(chunk) <= 1.0)  # NaN fails the comparison too
        if mask.any():
            row, col = np.unravel_index(int(mask.argmax()), mask.shape)
            raise ValueError(f"data violates the |entry| <= 1 bound at {np.count_nonzero(mask)} "
                             f"position(s), first ({self.rows + row}, {col}); normalize first")
        self.rows += chunk.shape[0]


def split_normalized(data: DataMatrix, stream: RandomStream) -> tuple[DataMatrix, DataMatrix]:
    """A uniformly random 4:1 row split (train, test), |train| =
    round(0.8 * n), with each column affine-mapped to [0, 1] using
    train-only min/max.

    Constant training columns map to 0.5 everywhere.  Test values are
    clamped into [0, 1] since they may exceed the training range.  The
    split's fresh copies are normalised in place, so the pair holds one
    matrix of rows.
    """
    if data.n < 5:
        raise ValueError(f"need at least 5 rows to split 4:1, got {data.n}")
    n_train = round(0.8 * data.n)
    perm = stream.generator().permutation(data.n)
    train = data.values[np.sort(perm[:n_train])]
    test = data.values[np.sort(perm[n_train:])]
    lo = train.min(axis=0)
    span = train.max(axis=0) - lo
    constant = span == 0.0
    divisor = np.where(constant, 1.0, span)
    for values in (train, test):
        np.subtract(values, lo, out=values)
        np.divide(values, divisor, out=values)
        values[:, constant] = 0.5
    np.clip(test, 0.0, 1.0, out=test)
    return DataMatrix(train, data.column_names), DataMatrix(test, data.column_names)


def load_csv(path: str, label_column: str | None = None) -> DataMatrix:
    """Ingest a UTF-8 (optionally BOM-prefixed), comma-separated file with
    a header row.

    Unreadable files, non-numeric or non-finite cells, ragged rows and a
    column whose max - min overflows are fatal, reported with 1-based
    row/column positions where there is one (the header is row 1, and a
    row is a record, so a quoted cell may span lines); columns are the
    file's.  If ``label_column`` names a column other than the last one,
    it is moved last in place, after every cell has been checked; it must
    name exactly one column.

    The cells are parsed straight into one float64 buffer, which becomes
    the returned matrix: the ingest holds no Python object per cell and
    no copy of the matrix, and peaks at about 1.2x its size (the buffer's
    growth slack and a finiteness mask).
    """
    from array import array  # here, not at import: synthetic runs would map its 70 KiB too

    row = 0  # records read so far; a csv.Error is in the next one
    cells = array("d")
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataFormatError(f"{path}: file is empty") from None
            row = 1
            names = [h.strip() for h in header]
            if not any(names):
                raise DataFormatError(f"{path}: the header row names no column", row=1)
            # rows are records, not lines: a quoted cell may hold a newline
            for row, raw in enumerate(reader, start=2):
                if len(raw) != len(names):
                    raise DataFormatError(
                        f"{path}: expected {len(names)} cells, found {len(raw)}", row=row
                    )
                try:
                    cells.extend(map(float, raw))
                except ValueError:  # name the first cell float() rejects
                    for col, cell in enumerate(raw, start=1):
                        try:
                            float(cell)
                        except ValueError:
                            raise DataFormatError(
                                f"{path}: non-numeric cell {cell!r}", row=row, column=col
                            ) from None
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read file: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise DataFormatError(f"{path}: file is not valid UTF-8") from None
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise DataFormatError(f"{path}: {exc}", row=row + 1) from None
    if not cells:
        raise DataFormatError(f"{path}: no data rows")
    values = np.frombuffer(cells).reshape(-1, len(names))
    finite = np.isfinite(values)
    if not finite.all():  # float() accepts "nan" and "inf"
        r, c = np.unravel_index(int(finite.argmin()), finite.shape)
        raise DataFormatError(
            f"{path}: non-finite cell {float(values[r, c])!r}", row=int(r) + 2, column=int(c) + 1
        )
    del finite
    with np.errstate(over="ignore"):
        spans = np.isfinite(values.max(axis=0) - values.min(axis=0))
    if not spans.all():  # min-max normalization divides by the span
        raise DataFormatError(f"{path}: column range overflows", column=int(spans.argmin()) + 1)
    if label_column is not None:
        if label_column not in names:
            raise DataFormatError(f"{path}: no column named {label_column!r}")
        idx = names.index(label_column)
        if label_column in names[idx + 1 :]:
            raise DataFormatError(f"{path}: more than one column is named {label_column!r}",
                                  column=names.index(label_column, idx + 1) + 1)
        # shift the later columns left one at a time: the one temporary
        # is the label column, not a reordered copy of the matrix
        label = values[:, idx].copy()
        for c in range(idx, len(names) - 1):
            values[:, c] = values[:, c + 1]
        values[:, -1] = label
        names.append(names.pop(idx))
    return DataMatrix(values, tuple(names))


def write_csv(path: str, column_names, chunks: Iterable[np.ndarray]) -> None:
    """Write a matrix, given as its row chunks in order, in the format
    ``load_csv`` ingests."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(column_names)
        for chunk in chunks:
            for row in chunk:
                writer.writerow([format(v, ".17g") for v in row])
