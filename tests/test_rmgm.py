import math

import numpy as np
import pytest

from mpdp.data_model import partition_evenly, slice_party
from mpdp.dp_core import PrivacyParams, calibrate, gaussian_noise
from mpdp.kernels import rademacher_matrix, sketch_product
from mpdp.linalg import SingularSystemError
from mpdp.rmgm import K_GRID, RmgmRelease, choose_k, rmgm_release, rmgm_train
from mpdp.streams import RandomStream
from mpdp.synthetic import gen_dataset, gen_ground_truth

from _oracles import rmgm_oracle

ZERO_NOISE = PrivacyParams(epsilon=1.0, delta=1e-5, sigma=0.0)


def small_instance(seed, n=100, d=3, m=2):
    base = RandomStream(seed)
    truth = gen_ground_truth(d, base.child("t"))
    data = gen_dataset(n, truth, base.child("d"))
    return truth, data, partition_evenly(d + 1, m)


def force_mixing(monkeypatch, matrix):
    """Make rmgm_release mix with the fixed matrix B = ``matrix``."""

    def product(seed, values, k):
        assert matrix.shape == (k, values.shape[0])
        return matrix @ values

    monkeypatch.setattr("mpdp.rmgm.sketch_product", product)


class TestChooseK:
    def test_synthetic_scaling(self):
        sigma = calibrate(1.0, 1e-5).sigma
        assert choose_k(10**6, sigma, mode="synthetic") == (206,)

    def test_clamped_to_one(self):
        assert choose_k(25, 5.0, mode="synthetic") == (1,)

    def test_grid_mode_returns_candidates(self):
        assert choose_k(1000, 1.0, mode="grid") == (100, 300, 1000, 3000, 10000)
        assert choose_k(1000, 1.0, mode="grid", grid=(7, 8)) == (7, 8)
        assert K_GRID == (100, 300, 1000, 3000, 10000)

    def test_rate_mode_includes_dimension_factors(self):
        sigma = calibrate(1.0, 1e-5).sigma
        expected = max(1, round(math.sqrt(10**6 * 10) / (math.sqrt(2) * sigma)))
        assert choose_k(10**6, sigma, d=10, d_max=2, mode="rate") == (expected,)

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValueError):
            choose_k(100, 0.0, mode="synthetic")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            choose_k(100, 1.0, mode="magic")


class TestRelease:
    def test_shape_is_k_rows(self):
        _, data, part = small_instance(1, n=200, d=5, m=3)
        release = rmgm_release(data, part, calibrate(1.0, 1e-5), 7, RandomStream(2))
        assert release.public_matrix.shape == (7, 6)
        assert release.k == 7

    def test_single_mixing_seed_shared(self):
        _, data, part = small_instance(3)
        release = rmgm_release(data, part, ZERO_NOISE, 5, RandomStream(4))
        assert isinstance(release.mixing_seed, int)
        assert release.mixing_seed == RandomStream(4).child("mixing").seed64()

    def test_forced_all_ones_mixing_row(self, monkeypatch):
        # with B = [1 1 ... 1] and no noise the single release row is the
        # column-sum vector of the data (sqrt(1) = 1)
        _, data, part = small_instance(5, n=40)
        force_mixing(monkeypatch, np.ones((1, 40)))
        release = rmgm_release(data, part, ZERO_NOISE, 1, RandomStream(6))
        np.testing.assert_allclose(
            release.public_matrix[0], data.values.sum(axis=0), rtol=1e-12
        )

    def test_per_party_blockwise_consistency(self):
        # slicing a party block out and releasing it against the shared
        # mixing seed plus its own noise stream reproduces the joint
        # release bit for bit
        _, data, part = small_instance(9, n=64, d=5, m=3)
        priv = calibrate(0.5, 1e-4)
        root = RandomStream(10)
        k = 6
        release = rmgm_release(data, part, priv, k, root)
        for j, (a, b) in enumerate(part.blocks, start=1):
            block = np.ascontiguousarray(slice_party(data, part, j))
            mixed = sketch_product(release.mixing_seed, block, k) / math.sqrt(k)
            mixed += gaussian_noise(k, b - a, release.noise_std, root.child(j))
            np.testing.assert_array_equal(release.public_matrix[:, a:b], mixed)

    def test_rejects_out_of_bounds_data(self):
        from mpdp.data_model import DataMatrix

        data = DataMatrix(np.array([[3.0, 0.0], [0.0, 0.0]]), ("a", "y"))
        with pytest.raises(ValueError, match="bound"):
            rmgm_release(data, partition_evenly(2, 2), ZERO_NOISE, 1, RandomStream(0))

    def test_warns_when_k_not_small(self):
        _, data, part = small_instance(11, n=20)
        with pytest.warns(UserWarning, match="k="):
            rmgm_release(data, part, ZERO_NOISE, 30, RandomStream(12))

    def test_gram_preserved_without_noise(self):
        # sigma = 0, k = 4000, n = 1e4: the compressed Gram matrix stays
        # entrywise within 0.2 of the raw one (empirical scale ~0.02) in
        # at least 95% of 50 streams.
        hits = 0
        for seed in range(50):
            base = RandomStream(13000 + seed)
            truth = gen_ground_truth(10, base.child("t"))
            data = gen_dataset(10**4, truth, base.child("d"))
            part = partition_evenly(11, 6)
            release = rmgm_release(data, part, ZERO_NOISE, 4000, base.child("r"))
            x = data.features()
            x_mixed = release.public_matrix[:, :-1]
            deviation = np.abs(x_mixed.T @ x_mixed / data.n - x.T @ x / data.n).max()
            hits += deviation <= 0.2
        assert hits >= 48  # 0.95 * 50, rounded up


class TestTrain:
    def test_identity_padding_recovers_weights(self, monkeypatch):
        # B = sqrt(k) * [I_k | 0] selects the first k rows exactly, so
        # training on the release is least squares on noise-free rows
        truth, data, part = small_instance(14, n=50, d=3)
        k = 10
        forced = np.zeros((k, 50))
        forced[:, :k] = np.sqrt(k) * np.eye(k)
        force_mixing(monkeypatch, forced)
        release = rmgm_release(data, part, ZERO_NOISE, k, RandomStream(15))
        weights, _ = rmgm_train(release, lam=0.0)
        assert np.linalg.norm(weights - truth.w_star) < 1e-6

    def test_matches_brute_force_oracle(self):
        _, data, part = small_instance(16, n=100, d=3)
        priv = calibrate(1.0, 0.5)
        release = rmgm_release(data, part, priv, 20, RandomStream(17))
        weights, _ = rmgm_train(release, lam=1e-5)
        expected = rmgm_oracle(release.public_matrix, 1e-5)
        assert np.abs(weights - expected).max() < 1e-10

    def test_rank_deficient_without_ridge(self):
        _, data, part = small_instance(18, n=50, d=3)
        release = rmgm_release(data, part, calibrate(1.0, 1e-5), 2, RandomStream(19))
        with pytest.raises(SingularSystemError):
            rmgm_train(release, lam=0.0)

    def test_gram_matrix_is_psd(self):
        for seed in range(10):
            _, data, part = small_instance(20 + seed, n=80, d=4)
            release = rmgm_release(
                data, part, calibrate(1.0, 1e-3), 6, RandomStream(40 + seed)
            )
            x = release.public_matrix[:, :-1]
            assert np.linalg.eigvalsh(x.T @ x).min() >= -1e-10

    def test_release_stores_exactly_one_mixing_seed(self):
        fields = {f.name for f in RmgmRelease.__dataclass_fields__.values()}
        assert "mixing_seed" in fields
        assert not any(f.startswith("mixing") and f != "mixing_seed" for f in fields)


class TestConvergenceTendency:
    def test_median_distance_shrinks_with_n(self):
        # noise-free path: k = round(sqrt(n)/sigma) grows with n, and the
        # compression error alone shrinks; 30 seeds at two sizes separate
        # cleanly
        sigma = calibrate(1.0, 1e-5).sigma
        medians = []
        for n in (10**4, 9 * 10**4):
            distances = []
            for seed in range(30):
                base = RandomStream(60000 + seed)
                truth = gen_ground_truth(10, base.child("t"))
                data = gen_dataset(n, truth, base.child("d"))
                part = partition_evenly(11, 6)
                priv = calibrate(1.0, 1e-5)
                (k,) = choose_k(n, sigma, mode="synthetic")
                release = rmgm_release(data, part, priv, k, base.child("r"))
                weights, _ = rmgm_train(release, lam=1e-5)
                distances.append(np.linalg.norm(weights - truth.w_star))
            medians.append(np.median(distances))
        assert medians[1] < medians[0]

    def test_distance_nondecreasing_in_sigma(self):
        # fixed n = 1e5: shrinking the budget (growing sigma) never helps
        medians = []
        for eps in (1.0, 0.3, 0.1):
            priv = calibrate(eps, 1e-5)
            distances = []
            for seed in range(100):
                base = RandomStream(70000 + seed)
                truth = gen_ground_truth(10, base.child("t"))
                data = gen_dataset(10**5, truth, base.child("d"))
                part = partition_evenly(11, 6)
                (k,) = choose_k(10**5, priv.sigma, mode="synthetic")
                release = rmgm_release(data, part, priv, k, base.child("r", int(eps * 10)))
                weights, _ = rmgm_train(release, lam=1e-5)
                distances.append(np.linalg.norm(weights - truth.w_star))
            medians.append(np.median(distances))
        assert medians[0] <= medians[1] <= medians[2]
