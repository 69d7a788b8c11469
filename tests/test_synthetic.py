import os
import subprocess
import sys

import numpy as np
import pytest

import mpdp

from mpdp.data_model import BoundsCheck, feed, partition_evenly
from mpdp.kernels import chunk_views
from mpdp.linalg import _block_rows, normal_equations, ols_system, solve_system
from mpdp.streams import RandomStream
from mpdp.synthetic import gen_ground_truth

from _oracles import dataset_one_shot, gen_matrix

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(mpdp.__file__)))
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))

# gen_chunks against one (n, d) draw and one label product, run where
# OpenBLAS has one thread (two may split the one product differently)
_ONE_THREAD_CHECK = """
import sys
import numpy as np
from _oracles import dataset_one_shot, gen_matrix
from mpdp.streams import RandomStream
from mpdp.synthetic import gen_ground_truth

d, n = int(sys.argv[1]), int(sys.argv[2])
w_star = gen_ground_truth(d, RandomStream(13))
data = gen_matrix(n, w_star, RandomStream(14))
print(np.array_equal(data, dataset_one_shot(n, w_star, RandomStream(14))))
"""


class TestGeneratingWeights:
    def test_support_scales_with_dimension(self):
        w_star = gen_ground_truth(10, RandomStream(0))
        assert w_star.shape == (10,)
        assert (np.abs(w_star) <= 0.1).all()

    def test_one_dimensional_support(self):
        w_star = gen_ground_truth(1, RandomStream(1))
        assert abs(w_star[0]) <= 1.0

    def test_deterministic(self):
        a = gen_ground_truth(5, RandomStream(2).child("t"))
        b = gen_ground_truth(5, RandomStream(2).child("t"))
        np.testing.assert_array_equal(a, b)


class TestDataset:
    def test_generated_data_is_bounded(self):
        w_star = gen_ground_truth(10, RandomStream(3))
        data = gen_matrix(500, w_star, RandomStream(4))
        feed(chunk_views(data), BoundsCheck(partition_evenly(11, 6), 11))
        assert data.shape == (500, 11)

    def test_zero_weights_give_zero_labels(self):
        data = gen_matrix(20, np.zeros(4), RandomStream(6))
        assert (data[:, -1] == 0.0).all()

    @pytest.mark.parametrize("w_star", [np.zeros((2, 3)), np.zeros(0), np.float64(0.5)],
                             ids=["2d", "empty", "scalar"])
    def test_rejects_a_w_star_that_is_not_a_non_empty_vector(self, w_star):
        with pytest.raises(ValueError, match="non-empty vector"):
            gen_matrix(20, w_star, RandomStream(6))

    def test_labels_are_exact_inner_products(self):
        w_star = gen_ground_truth(6, RandomStream(7))
        data = gen_matrix(50, w_star, RandomStream(8))
        np.testing.assert_array_equal(data[:, -1], data[:, :-1] @ w_star)

    def test_chunks_match_one_draw_and_one_product(self):
        # two whole 8192-row label blocks and a 3-row remainder (drawn and
        # labelled as a group of 4), in a 16 384-row chunk and a short one:
        # the chunked features and the labels are bit for bit a single
        # draw and a single product
        w_star = gen_ground_truth(10, RandomStream(11))
        n = 2 * _block_rows(11) + 3
        data = gen_matrix(n, w_star, RandomStream(12))
        assert np.array_equal(data, dataset_one_shot(n, w_star, RandomStream(12)))

    @pytest.mark.parametrize("d", [10, 40])
    def test_label_blocks_match_one_product_on_one_blas_thread(self, d):
        # two whole 8192-row label blocks and a 3-row remainder (drawn and
        # labelled as a group of 4), in one 16 384-row chunk and a short one
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC_DIR, TESTS_DIR]),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", _ONE_THREAD_CHECK, str(d), str(2 * 8192 + 3)],
            env=env, capture_output=True, text=True, timeout=600, check=True,
        )
        assert proc.stdout.split() == ["True"]

    def test_feature_second_moment(self):
        # E[x^2] = 1/3 for U(-1, 1); at 1e6 rows x 10 columns the sample
        # mean of x^2 is far inside a 1% band.
        w_star = gen_ground_truth(10, RandomStream(9))
        data = gen_matrix(10**6, w_star, RandomStream(10))
        moment = (data[:, :-1] ** 2).mean()
        assert abs(moment - 1 / 3) < 1 / 300


class TestRealizability:
    def test_least_squares_recovers_generating_weights(self):
        w_star = gen_ground_truth(10, RandomStream(13))
        data = gen_matrix(5000, w_star, RandomStream(14))
        weights, _ = solve_system(ols_system(normal_equations(data), lam=0.0))
        assert np.linalg.norm(weights - w_star) < 1e-8

    def test_empirical_gram_is_well_conditioned(self):
        w_star = gen_ground_truth(10, RandomStream(15))
        data = gen_matrix(10**5, w_star, RandomStream(16))
        x = data[:, :-1]
        gram = x.T @ x / len(data)
        assert np.linalg.eigvalsh(gram).min() > 0.25

    def test_default_party_layout(self):
        assert partition_evenly(11, 6).d_js == (2, 2, 2, 2, 2, 1)
