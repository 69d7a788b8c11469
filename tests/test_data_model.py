import numpy as np
import pytest
from hypothesis import given, strategies as st

from mpdp.data_model import (
    DataFormatError,
    DataMatrix,
    PartyPartition,
    load_csv,
    normalize_minmax,
    partition_evenly,
    save_csv,
    split_train_test,
    validate_bounds,
)
from mpdp.kernels import _COL_CHUNK
from mpdp.streams import RandomStream


def matrix(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    if names is None:
        names = tuple(f"c{i}" for i in range(values.shape[1]))
    return DataMatrix(values, names)


class TestDataMatrix:
    def test_shape_accessors(self):
        m = matrix(np.zeros((4, 3)))
        assert (m.n, m.d) == (4, 2)
        assert m.features().shape == (4, 2)
        assert m.labels().shape == (4,)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            matrix([[1.0, np.nan]])

    def test_non_finite_entry_in_last_partial_row_chunk(self):
        rows = _COL_CHUNK
        values = np.zeros((2 * rows + 3, 3))
        values[2 * rows + 1, 2] = np.inf
        with pytest.raises(ValueError, match=rf"row {2 * rows + 1}, column 2"):
            matrix(values)

    def test_rejects_name_mismatch(self):
        with pytest.raises(ValueError):
            DataMatrix(np.zeros((2, 2)), ("only_one",))


class TestValidateBounds:
    def test_zeros_ok(self):
        validate_bounds(matrix(np.zeros((3, 3))), partition_evenly(3, 2))

    def test_reports_offending_cell(self):
        # the error names a count and the first offender in row-major
        # order, not every offending cell
        values = np.zeros((4, 3))
        values[1, 2] = -1.5
        values[3, 0] = 1.5
        values[2, :] = 7.0
        with pytest.raises(ValueError, match=r"at 5 position\(s\), first \(1, 2\)"):
            validate_bounds(matrix(values), partition_evenly(3, 2))

    def test_lone_offender_in_last_partial_row_chunk(self):
        # the chunked scan finds it; the report matches a whole-matrix scan
        rows = _COL_CHUNK
        values = np.zeros((2 * rows + 3, 3))
        values[2 * rows + 2, 1] = -1.25
        with pytest.raises(ValueError, match=rf"at 1 position\(s\), first \({2 * rows + 2}, 1\)"):
            validate_bounds(matrix(values), partition_evenly(3, 2))

    def test_bound_is_inclusive(self):
        values = np.array([[1.0, -1.0], [-1.0, 1.0]])
        validate_bounds(matrix(values), partition_evenly(2, 2))

    def test_partition_must_cover_every_column(self):
        for width in (3, 5):
            with pytest.raises(ValueError, match="does not cover"):
                validate_bounds(matrix(np.zeros((2, 4))), partition_evenly(width, 2))


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


class TestNormalize:
    def test_affine_map_to_unit_interval(self):
        train = matrix([[0.0], [5.0], [10.0]])
        test = matrix([[2.5]])
        train_n, test_n = normalize_minmax(train, test)
        np.testing.assert_allclose(train_n.values[:, 0], [0.0, 0.5, 1.0])
        np.testing.assert_allclose(test_n.values[:, 0], [0.25])

    def test_test_values_clamped(self):
        train = matrix([[0.0], [10.0]])
        test = matrix([[12.0], [-3.0]])
        _, test_n = normalize_minmax(train, test)
        np.testing.assert_array_equal(test_n.values[:, 0], [1.0, 0.0])

    def test_constant_column_maps_to_half(self):
        train = matrix([[7.0], [7.0], [7.0]])
        train_n, test_n = normalize_minmax(train, matrix([[7.0]]))
        assert (train_n.values == 0.5).all()
        assert (test_n.values == 0.5).all()

    def test_idempotent_on_normalized_data(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(size=(50, 4))
        values[0] = 0.0
        values[1] = 1.0
        train = matrix(values)
        once, _ = normalize_minmax(train, train)
        twice, _ = normalize_minmax(once, once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    def test_output_always_passes_bounds_check(self):
        rng = np.random.default_rng(2)
        train = matrix(rng.normal(0, 100, size=(40, 5)))
        test = matrix(rng.normal(0, 300, size=(10, 5)))
        for part in normalize_minmax(train, test):
            validate_bounds(part, partition_evenly(5, 2))


class TestSplit:
    def test_four_to_one_counts(self):
        m = matrix(np.zeros((10, 2)))
        train, test = split_train_test(m, RandomStream(1))
        assert (train.n, test.n) == (8, 2)

    def test_large_count_convention(self):
        m = matrix(np.zeros((1070, 2)))
        train, test = split_train_test(m, RandomStream(1))
        assert (train.n, test.n) == (856, 214)

    @pytest.mark.parametrize("seed", [0, 1, 9, 123456])
    def test_deterministic_and_disjoint(self, seed):
        rng = np.random.default_rng(3)
        m = matrix(rng.uniform(size=(37, 2)))
        a_train, a_test = split_train_test(m, RandomStream(seed).child("split"))
        b_train, b_test = split_train_test(m, RandomStream(seed).child("split"))
        np.testing.assert_array_equal(a_train.values, b_train.values)
        np.testing.assert_array_equal(a_test.values, b_test.values)
        stacked = np.concatenate([a_train.values, a_test.values])
        assert stacked.shape == m.values.shape
        assert {tuple(r) for r in stacked} == {tuple(r) for r in m.values}

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            split_train_test(matrix(np.zeros((4, 2))), RandomStream(0))


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        m = matrix(rng.uniform(-1, 1, size=(5, 3)), ("a", "b", "y"))
        path = tmp_path / "data.csv"
        save_csv(m, str(path))
        loaded = load_csv(str(path))
        assert loaded.column_names == ("a", "b", "y")
        np.testing.assert_array_equal(loaded.values, m.values)

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
        loaded = load_csv(str(path), label_column="y")
        assert loaded.column_names == ("a", "b", "y")
        np.testing.assert_array_equal(loaded.values, [[2, 3, 1], [5, 6, 4]])

    def test_unknown_label_column(self, tmp_path):
        path = tmp_path / "labeled.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError):
            load_csv(str(path), label_column="missing")
