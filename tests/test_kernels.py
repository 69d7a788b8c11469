import numpy as np
import pytest

from mpdp import kernels


class TestRademacherMatrix:
    def test_entries_are_plus_minus_one(self):
        m = kernels.rademacher_matrix(123, 40, 70)
        assert set(np.unique(m)) == {-1.0, 1.0}

    def test_reproducible_from_seed(self):
        a = kernels.rademacher_matrix(99, 16, 130)
        b = kernels.rademacher_matrix(99, 16, 130)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = kernels.rademacher_matrix(1, 8, 8)
        b = kernels.rademacher_matrix(2, 8, 8)
        assert not np.array_equal(a, b)

    def test_tiles_agree_with_full_matrix(self):
        full = kernels.rademacher_matrix(55, 30, 200)
        tile = kernels.rademacher_tile(55, 200, 7, 9, 63, 111)
        np.testing.assert_array_equal(tile, full[7:16, 63:174])

    def test_tile_offsets_across_word_boundaries(self):
        full = kernels.rademacher_matrix(55, 4, 130)
        for col0, cols in [(0, 1), (63, 2), (64, 64), (127, 3), (1, 129)]:
            tile = kernels.rademacher_tile(55, 130, 0, 4, col0, cols)
            np.testing.assert_array_equal(tile, full[:, col0 : col0 + cols])

    def test_entry_mean_near_zero(self):
        m = kernels.rademacher_matrix(2024, 1000, 1000)
        assert abs(m.mean()) < 3 / np.sqrt(m.size)


class TestSketchProduct:
    def test_matches_materialized_product(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(-1, 1, size=(555, 7))
        direct = kernels.rademacher_matrix(31, 20, 555) @ data
        streamed = kernels.sketch_product(31, data, 20)
        np.testing.assert_allclose(streamed, direct, rtol=1e-13, atol=1e-12)

    def test_spans_multiple_chunks(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(-1, 1, size=(kernels._COL_CHUNK + 333, 3))
        direct = kernels.rademacher_matrix(5, 4, data.shape[0]) @ data
        np.testing.assert_allclose(
            kernels.sketch_product(5, data, 4), direct, rtol=1e-12, atol=1e-9
        )

    def test_single_row_and_single_column(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(-1, 1, size=(50, 1))
        direct = kernels.rademacher_matrix(8, 1, 50) @ data
        np.testing.assert_allclose(kernels.sketch_product(8, data, 1), direct, atol=1e-12)

    def test_column_independence(self):
        # each output column depends only on the matching input column
        rng = np.random.default_rng(3)
        data = rng.uniform(-1, 1, size=(200, 5))
        whole = kernels.sketch_product(77, data, 12)
        for j in range(5):
            part = kernels.sketch_product(77, data[:, j : j + 1], 12)
            np.testing.assert_array_equal(part[:, 0], whole[:, j])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            kernels.sketch_product(1, np.zeros(5), 2)
        with pytest.raises(ValueError):
            kernels.sketch_product(1, np.zeros((5, 2)), 0)

