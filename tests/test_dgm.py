import numpy as np
import pytest

from mpdp.data_model import DataMatrix, partition_evenly
from mpdp.dgm import dgm_release, dgm_train
from mpdp.dp_core import PrivacyParams, calibrate, gaussian_noise, sensitivity_bound
from mpdp.linalg import SingularSystemError
from mpdp.streams import RandomStream
from mpdp.synthetic import gen_dataset, gen_ground_truth

from _oracles import dgm_oracle

ZERO_NOISE = PrivacyParams(epsilon=1.0, delta=1e-5, sigma=0.0)


def small_instance(seed, n=60, d=3):
    base = RandomStream(seed)
    truth = gen_ground_truth(d, base.child("t"))
    data = gen_dataset(n, truth, base.child("d"))
    return truth, data, partition_evenly(d + 1, 2)


class TestRelease:
    def test_zero_sigma_release_is_bitwise_identity(self):
        _, data, part = small_instance(1)
        release = dgm_release(data, part, ZERO_NOISE, RandomStream(2))
        np.testing.assert_array_equal(release.public_matrix, data.values)
        assert release.noise_std == 0.0

    def test_shape_and_metadata(self):
        _, data, part = small_instance(3, n=40, d=5)
        priv = calibrate(0.5, 1e-5)
        release = dgm_release(data, part, priv, RandomStream(4))
        assert release.public_matrix.shape == (40, 6)
        assert release.n == 40 and release.d == 5
        assert release.noise_std == sensitivity_bound(part.d_max) * priv.sigma
        assert len(release.party_seeds) == part.m

    def test_noise_reconstructible_from_recorded_streams(self):
        _, data, part = small_instance(5)
        priv = calibrate(1.0, 1e-5)
        release = dgm_release(data, part, priv, RandomStream(6).child("dgm"))
        rebuilt = np.empty_like(data.values)
        for (a, b), stream in zip(part.blocks, release.party_seeds):
            noise = gaussian_noise(data.n, b - a, release.noise_std, stream)
            rebuilt[:, a:b] = data.values[:, a:b] + noise
        np.testing.assert_array_equal(release.public_matrix, rebuilt)

    def test_blockwise_equals_concatenated(self):
        # releasing each party block against its derived stream and
        # concatenating reproduces the single-call release bit for bit
        _, data, part = small_instance(7, n=30, d=5)
        priv = calibrate(1.0, 1e-4)
        root = RandomStream(8)
        release = dgm_release(data, part, priv, root)
        blocks = []
        for j, (a, b) in enumerate(part.blocks, start=1):
            noise = gaussian_noise(data.n, b - a, release.noise_std, root.child(j))
            blocks.append(data.values[:, a:b] + noise)
        np.testing.assert_array_equal(release.public_matrix, np.concatenate(blocks, axis=1))

    def test_rejects_out_of_bounds_data(self):
        data = DataMatrix(np.array([[0.5, 2.0], [0.1, 0.2]]), ("a", "y"))
        with pytest.raises(ValueError, match="bound"):
            dgm_release(data, partition_evenly(2, 2), calibrate(1.0, 1e-5), RandomStream(0))

    def test_noise_variance_at_scale(self):
        # per-entry noise variance 4*d_max*sigma^2 = 187.777 at eps=1,
        # delta=1e-5, d_max=2; 1.1e6 entries put the sample variance
        # within 3%.
        truth = gen_ground_truth(10, RandomStream(9).child("t"))
        data = gen_dataset(10**5, truth, RandomStream(9).child("d"))
        priv = calibrate(1.0, 1e-5)
        part = partition_evenly(11, 6)
        release = dgm_release(data, part, priv, RandomStream(9).child("r"))
        noise = release.public_matrix - data.values
        target = 4 * part.d_max * priv.sigma**2
        assert abs(noise.var() - target) / target < 0.03


class TestTrain:
    def test_zero_noise_zero_ridge_reduces_to_exact_ols(self):
        truth, data, part = small_instance(10, n=500, d=4)
        release = dgm_release(data, part, ZERO_NOISE, RandomStream(11))
        weights, diag = dgm_train(release, part.d_max, ZERO_NOISE, lam=0.0)
        assert np.linalg.norm(weights - truth.w_star) < 1e-8
        assert diag.bias_removed == 0.0

    def test_matches_brute_force_oracle(self):
        _, data, part = small_instance(12, n=50, d=3)
        priv = calibrate(1.0, 0.9)
        release = dgm_release(data, part, priv, RandomStream(13))
        weights, _ = dgm_train(release, part.d_max, priv, lam=1e-5)
        expected = dgm_oracle(release.public_matrix, part.d_max, priv.sigma, 1e-5)
        assert np.abs(weights - expected).max() < 1e-10

    def test_debias_identity(self):
        # adding the removed bias back recovers the raw Gram matrix
        for seed in range(5):
            _, data, part = small_instance(100 + seed, n=80, d=4)
            priv = calibrate(0.7, 1e-3)
            release = dgm_release(data, part, priv, RandomStream(200 + seed))
            _, diag = dgm_train(release, part.d_max, priv, lam=1e-5)
            x = release.public_matrix[:, :-1]
            raw_gram = x.T @ x / release.n
            rebuilt = diag.matrix + diag.bias_removed * np.eye(release.d)
            assert np.abs(rebuilt - raw_gram).max() < 1e-12
            assert np.abs(diag.matrix - diag.matrix.T).max() < 1e-12

    def test_singular_system_raises(self):
        # duplicated feature columns leave the de-biased matrix rank
        # deficient; with no ridge the solve must refuse
        column = np.array([0.5, -0.5, 0.25, -0.25])
        values = np.column_stack([column, column, np.ones(4) * 0.1])
        data = DataMatrix(values, ("a", "b", "y"))
        release = dgm_release(data, partition_evenly(3, 2), ZERO_NOISE, RandomStream(0))
        with pytest.raises(SingularSystemError):
            dgm_train(release, 2, ZERO_NOISE, lam=0.0)

    def test_hessian_estimate_is_unbiased(self):
        # mean of the de-biased Gram matrix over repeated releases of one
        # fixed dataset stays within 3 standard errors of the raw Gram
        truth = gen_ground_truth(5, RandomStream(14).child("t"))
        data = gen_dataset(10**4, truth, RandomStream(14).child("d"))
        part = partition_evenly(6, 3)
        priv = calibrate(1.0, 1e-2)
        x = data.features()
        raw_gram = x.T @ x / data.n
        samples = []
        for seed in range(200):
            release = dgm_release(data, part, priv, RandomStream(15).child(seed))
            _, diag = dgm_train(release, part.d_max, priv, lam=0.0)
            samples.append(diag.matrix)
        samples = np.asarray(samples)
        mean = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
        assert (np.abs(mean - raw_gram) <= 3 * stderr).all()
