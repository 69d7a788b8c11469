import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mpdp.data_model import (
    BoundsCheck,
    DataFormatError,
    PartyPartition,
    feed,
    load_csv,
    partition_evenly,
    split_normalized,
)
from mpdp.evaluation import to_csv
from mpdp.kernels import _COL_CHUNK, chunk_views
from mpdp.streams import RandomStream

from _oracles import csv_values


def check_bounds(data, partition):
    """A trial's bounds check, over a held matrix's row chunks."""
    feed(chunk_views(data), BoundsCheck(partition, data.shape[1]))


class TestBoundsCheck:
    def test_zeros_ok(self):
        check_bounds(np.zeros((3, 3)), partition_evenly(3, 2))

    def test_reports_offending_cell(self):
        # the error names a count and the first offender in row-major
        # order, not every offending cell
        values = np.zeros((4, 3))
        values[1, 2] = -1.5
        values[3, 0] = 1.5
        values[2, :] = 7.0
        with pytest.raises(ValueError, match=r"at 5 position\(s\), first \(1, 2\)"):
            check_bounds(values, partition_evenly(3, 2))

    def test_lone_offender_in_last_partial_row_chunk(self):
        # the chunked scan finds it; the report matches a whole-matrix scan
        rows = _COL_CHUNK
        values = np.zeros((2 * rows + 3, 3))
        values[2 * rows + 2, 1] = -1.25
        with pytest.raises(ValueError, match=rf"at 1 position\(s\), first \({2 * rows + 2}, 1\)"):
            check_bounds(values, partition_evenly(3, 2))

    def test_bound_is_inclusive(self):
        values = np.array([[1.0, -1.0], [-1.0, 1.0]])
        check_bounds(values, partition_evenly(2, 2))

    def test_partition_must_cover_every_column(self):
        for width in (3, 5):
            with pytest.raises(ValueError, match="does not cover"):
                check_bounds(np.zeros((2, 4)), partition_evenly(width, 2))


class TestPartitioning:
    def test_eleven_columns_six_parties(self):
        part = partition_evenly(11, 6)
        assert part.d_js == (2, 2, 2, 2, 2, 1)
        assert part.d_max == 2
        assert part.m == 6

    def test_exact_division(self):
        assert partition_evenly(10, 5).d_js == (2, 2, 2, 2, 2)

    def test_more_parties_than_columns(self):
        with pytest.raises(ValueError):
            partition_evenly(10, 11)

    def test_single_party_rejected(self):
        with pytest.raises(ValueError):
            partition_evenly(10, 1)

    @given(st.integers(2, 40), st.integers(0, 200))
    def test_blocks_cover_all_columns(self, m, extra):
        d_plus_1 = m + extra
        part = partition_evenly(d_plus_1, m)
        assert sum(part.d_js) == d_plus_1
        assert max(part.d_js) - min(part.d_js) <= 1
        covered = [c for a, b in part.blocks for c in range(a, b)]
        assert covered == list(range(d_plus_1))

    def test_non_contiguous_blocks_rejected(self):
        with pytest.raises(ValueError):
            PartyPartition(blocks=((0, 2), (3, 4)))


def split_rows(n, stream):
    """The rows ``split_normalized`` puts in (train, test): the first
    round(0.8 * n) of a permutation drawn from ``stream``, then the rest,
    each in row order."""
    perm = stream.generator().permutation(n)
    return np.sort(perm[: round(0.8 * n)]), np.sort(perm[round(0.8 * n) :])


def placed(train_values, test_values, stream):
    """A one-column matrix whose ``split_normalized`` split by ``stream``
    puts ``train_values`` in train and ``test_values`` in test, in order."""
    train_rows, test_rows = split_rows(len(train_values) + len(test_values), stream)
    values = np.empty((len(train_rows) + len(test_rows), 1))
    values[train_rows, 0], values[test_rows, 0] = train_values, test_values
    return values


class TestNormalize:
    def test_affine_map_to_unit_interval(self):
        data = placed([0.0, 5.0, 10.0, 2.0], [2.5], RandomStream(1))
        train_n, test_n = split_normalized(data, RandomStream(1))
        np.testing.assert_allclose(train_n[:, 0], [0.0, 0.5, 1.0, 0.2])
        np.testing.assert_allclose(test_n[:, 0], [0.25])

    def test_test_values_clamped(self):
        data = placed(np.linspace(0.0, 10.0, 8), [12.0, -3.0], RandomStream(2))
        _, test_n = split_normalized(data, RandomStream(2))
        np.testing.assert_array_equal(test_n[:, 0], [1.0, 0.0])

    def test_scaling_uses_the_training_rows_alone(self):
        # a test row holds every column's extreme: min/max taken over all
        # rows would leave each training column short of [0, 1]
        _, test_rows = split_rows(10, RandomStream(5))
        data = np.random.default_rng(5).uniform(-1.0, 1.0, size=(10, 3))
        data[test_rows[0]] = [5.0, -5.0, 5.0]
        train_n, test_n = split_normalized(data, RandomStream(5))
        np.testing.assert_array_equal(train_n.min(axis=0), 0.0)
        np.testing.assert_array_equal(train_n.max(axis=0), 1.0)
        np.testing.assert_array_equal(test_n[0], [1.0, 0.0, 1.0])

    def test_constant_column_maps_to_half(self):
        train_n, test_n = split_normalized(np.full((6, 1), 7.0), RandomStream(3))
        assert (train_n == 0.5).all()
        assert (test_n == 0.5).all()

    def test_output_always_passes_bounds_check(self):
        rng = np.random.default_rng(2)
        data = rng.standard_cauchy(size=(50, 5)) * 100  # test rows beyond train's range
        for part in split_normalized(data, RandomStream(4)):
            check_bounds(part, partition_evenly(5, 2))


class TestSplit:
    def test_four_to_one_counts(self):
        m = np.zeros((10, 2))
        train, test = split_normalized(m, RandomStream(1))
        assert (len(train), len(test)) == (8, 2)

    def test_large_count_convention(self):
        m = np.zeros((1070, 2))
        train, test = split_normalized(m, RandomStream(1))
        assert (len(train), len(test)) == (856, 214)

    @pytest.mark.parametrize("seed", [0, 1, 9, 123456])
    def test_deterministic_and_disjoint(self, seed):
        # 8 rows each of 0 and 1 (more than the 7 test rows) keep train's
        # range at [0, 1] for any split, so normalising leaves every value
        rng = np.random.default_rng(3)
        m = np.concatenate([np.zeros((8, 2)), np.ones((8, 2)), rng.uniform(size=(21, 2))])
        a_train, a_test = split_normalized(m, RandomStream(seed).child("split"))
        b_train, b_test = split_normalized(m, RandomStream(seed).child("split"))
        np.testing.assert_array_equal(a_train, b_train)
        np.testing.assert_array_equal(a_test, b_test)
        stacked = np.concatenate([a_train, a_test])
        assert sorted(map(tuple, stacked)) == sorted(map(tuple, m))

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            split_normalized(np.zeros((4, 2)), RandomStream(0))


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        m = rng.uniform(-1, 1, size=(5, 3))
        path = tmp_path / "data.csv"
        path.write_text(to_csv(("a", "b", "y"), m.tolist()))  # the package's CSV format
        np.testing.assert_array_equal(load_csv(str(path)), m)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(str(path))
        assert err.value.row == 3
        assert err.value.column == 2

    def test_ragged_row_reports_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(str(path))
        assert err.value.row == 3

    def test_label_column_moved_last(self, tmp_path):
        path = tmp_path / "labeled.csv"
        path.write_text("y,a,b\n1,2,3\n4,5,6\n")
        np.testing.assert_array_equal(load_csv(str(path), label_column="y"), [[2, 3, 1], [5, 6, 4]])

    def test_unknown_label_column(self, tmp_path):
        path = tmp_path / "labeled.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError):
            load_csv(str(path), label_column="missing")

    def test_label_column_named_twice(self, tmp_path):
        # the error names the second occurrence's file column, and a bad
        # cell is still reported first
        path = tmp_path / "twice.csv"
        path.write_text("b,a,c,a\n1,2,3,4\n")
        with pytest.raises(DataFormatError, match="more than one") as err:
            load_csv(str(path), label_column="a")
        assert err.value.column == 4
        np.testing.assert_array_equal(load_csv(str(path), label_column="b"), [[2, 3, 4, 1]])
        path.write_text("b,a,c,a\n1,2,x,4\n")
        with pytest.raises(DataFormatError, match="non-numeric") as err:
            load_csv(str(path), label_column="a")
        assert err.value.column == 3


# the label is the file's column 2 of 4, and record 2 spans lines 2-3:
# errors must name the file's column and count rows by record
LABEL_MID = 'a,y,b,c\n1,"\n2",3,4\n'
BAD_CELLS = {
    "non-numeric": ("oops", "non-numeric cell 'oops'"),
    "non-finite": ("-inf", "non-finite cell -inf"),
}


class TestCsvLabelNotLast:
    @pytest.mark.parametrize("kind", sorted(BAD_CELLS))
    @pytest.mark.parametrize("column", [1, 2, 4])
    def test_bad_cell_reports_the_files_row_and_column(self, tmp_path, kind, column):
        cell, message = BAD_CELLS[kind]
        cells = ["5", "6", "7", "8"]
        cells[column - 1] = cell
        path = tmp_path / "bad.csv"
        path.write_text(LABEL_MID + "0,0,0,0\n" + ",".join(cells) + "\n")
        with pytest.raises(DataFormatError, match=message) as err:
            load_csv(str(path), label_column="y")
        assert (err.value.row, err.value.column) == (4, column)

    def test_overflowing_column_reports_the_files_column(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(LABEL_MID + "5,6,7,1e308\n5,6,7,-1e308\n")
        with pytest.raises(DataFormatError, match="column range overflows") as err:
            load_csv(str(path), label_column="y")
        assert (err.value.row, err.value.column) == (None, 4)

    @pytest.mark.parametrize("last", ["5,6,oops,8", "5,6,nan,8", "5,6,-1e308,8"])
    def test_a_bad_cell_is_reported_before_a_missing_label(self, tmp_path, last):
        path = tmp_path / "bad.csv"
        path.write_text(LABEL_MID + "5,6,1e308,8\n" + last + "\n")
        with pytest.raises(DataFormatError) as err:
            load_csv(str(path), label_column="missing")
        assert "no column named" not in str(err.value)
        assert err.value.column == 3

    def test_values_match_a_list_of_floats(self, tmp_path):
        rng = np.random.default_rng(5)
        table = rng.uniform(-1e3, 1e3, size=(40, 5))
        table[0, :3] = [5e-324, 1e300, -0.0]
        lines = [",".join(format(v, ".17g") for v in row) for row in table]
        lines[1] = " 0.5 ,\t-2 ,1_000.25,  7,1_0"  # padded and underscored cells
        lines[2] = '"3\n",1,"\n2.5",4,5'  # quoted cells holding a newline
        path = tmp_path / "cells.csv"
        path.write_text("a, b ,y,c,d\n" + "\n".join(lines) + "\n")
        for label in (None, "a", "y", "d"):
            loaded = load_csv(str(path), label_column=label)
            expected = csv_values(str(path), label)
            assert loaded.dtype == np.float64
            np.testing.assert_array_equal(loaded, expected)
            np.testing.assert_array_equal(np.signbit(loaded), np.signbit(expected))

    @pytest.mark.parametrize("label", [None, "bmi", "expenses"])
    def test_fixture_values_match_a_list_of_floats(self, label):
        path = os.path.join(os.path.dirname(__file__), "fixtures", "insurance_sample.csv")
        np.testing.assert_array_equal(load_csv(path, label), csv_values(path, label))
