import numpy as np
import pytest

from mpdp.baselines import ols_train
from mpdp.data_model import partition_evenly, validate_bounds
from mpdp.streams import RandomStream
from mpdp.synthetic import gen_dataset, gen_ground_truth


class TestGroundTruth:
    def test_support_scales_with_dimension(self):
        truth = gen_ground_truth(10, RandomStream(0))
        assert truth.d == 10
        assert (np.abs(truth.w_star) <= 0.1).all()

    def test_one_dimensional_support(self):
        truth = gen_ground_truth(1, RandomStream(1))
        assert abs(truth.w_star[0]) <= 1.0

    def test_deterministic(self):
        a = gen_ground_truth(5, RandomStream(2).child("t"))
        b = gen_ground_truth(5, RandomStream(2).child("t"))
        np.testing.assert_array_equal(a.w_star, b.w_star)


class TestDataset:
    def test_generated_data_is_bounded(self):
        truth = gen_ground_truth(10, RandomStream(3))
        data = gen_dataset(500, truth, RandomStream(4))
        assert validate_bounds(data).ok
        assert data.values.shape == (500, 11)

    def test_zero_weights_give_zero_labels(self):
        truth = gen_ground_truth(4, RandomStream(5))
        zero = type(truth)(np.zeros(4))
        data = gen_dataset(20, zero, RandomStream(6))
        assert (data.labels() == 0.0).all()

    def test_labels_are_exact_inner_products(self):
        truth = gen_ground_truth(6, RandomStream(7))
        data = gen_dataset(50, truth, RandomStream(8))
        np.testing.assert_array_equal(data.labels(), data.features() @ truth.w_star)

    def test_feature_second_moment(self):
        # E[x^2] = 1/3 for U(-1, 1); at 1e6 rows x 10 columns the sample
        # mean of x^2 is far inside a 1% band.
        truth = gen_ground_truth(10, RandomStream(9))
        data = gen_dataset(10**6, truth, RandomStream(10))
        moment = (data.features() ** 2).mean()
        assert abs(moment - 1 / 3) < 1 / 300


class TestRealizability:
    def test_least_squares_recovers_generating_weights(self):
        truth = gen_ground_truth(10, RandomStream(13))
        data = gen_dataset(5000, truth, RandomStream(14))
        weights = ols_train(data.features(), data.labels(), lam=0.0)
        assert np.linalg.norm(weights - truth.w_star) < 1e-8

    def test_empirical_gram_is_well_conditioned(self):
        truth = gen_ground_truth(10, RandomStream(15))
        data = gen_dataset(10**5, truth, RandomStream(16))
        x = data.features()
        gram = x.T @ x / data.n
        assert np.linalg.eigvalsh(gram).min() > 0.25

    def test_default_party_layout(self):
        assert partition_evenly(11, 6).d_js == (2, 2, 2, 2, 2, 1)
