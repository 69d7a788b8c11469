import numpy as np
import pytest

from mpdp.data_model import partition_evenly
from mpdp.dgm import dgm_release
from mpdp.dp_core import PrivacyParams, calibrate
from mpdp.linalg import SingularSystemError, normal_equations, ols_system, solve_system
from mpdp.streams import RandomStream
from mpdp.synthetic import gen_ground_truth

from _oracles import dgm_published, gen_matrix, ols_oracle

ZERO_NOISE = PrivacyParams(epsilon=1.0, delta=1e-5, sigma=0.0)


def ols_fit(x, y, lam):
    return solve_system(ols_system(normal_equations(np.column_stack([x, y])), lam))


class TestOls:
    def test_recovers_weights_on_full_rank_square(self):
        rng = np.random.default_rng(0)
        x = np.eye(4) + 0.01 * rng.standard_normal((4, 4))
        w_star = rng.uniform(-1, 1, 4)
        weights, _ = ols_fit(x, x @ w_star, lam=0.0)
        assert np.linalg.norm(weights - w_star) < 1e-10

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(200, 4))
        y = rng.uniform(-1, 1, size=200)
        for lam in (0.0, 1e-5, 0.1):
            expected = ols_oracle(x, y, lam)
            weights, _ = ols_fit(x, y, lam)
            assert np.abs(weights - expected).max() < 1e-10

    def test_rank_deficient_without_ridge(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(3, 5))
        with pytest.raises(SingularSystemError):
            ols_fit(x, np.ones(3), lam=0.0)


class TestBgm:
    def _release(self, sigma_zero, seed=5, n=200):
        w_star = gen_ground_truth(4, RandomStream(seed).child("t"))
        data = gen_matrix(n, w_star, RandomStream(seed).child("d"))
        priv = ZERO_NOISE if sigma_zero else calibrate(1.0, 0.5)
        part = partition_evenly(5, 2)
        release = dgm_release(data, part, priv, RandomStream(seed).child("r"))
        return data, release, dgm_published(data, part, priv, RandomStream(seed).child("r"))

    def test_zero_noise_release_equals_plain_least_squares(self):
        data, release, _ = self._release(sigma_zero=True)
        noisy, _ = solve_system(ols_system(release, lam=1e-5))
        clean, _ = solve_system(ols_system(normal_equations(data), lam=1e-5))
        assert np.abs(noisy - clean).max() < 1e-12

    def test_matches_brute_force_oracle(self):
        _, release, public = self._release(sigma_zero=False)
        expected = ols_oracle(public[:, :-1], public[:, -1], 1e-5)
        weights, _ = solve_system(ols_system(release, lam=1e-5))
        assert np.abs(weights - expected).max() < 1e-10

    def test_biased_toward_zero_under_real_noise(self):
        # the retained noise variance shrinks the solution hard: the
        # fitted weights are much smaller than the generating ones, and
        # the distance to them stays macroscopic.
        w_star = gen_ground_truth(10, RandomStream(77).child("t"))
        data = gen_matrix(20000, w_star, RandomStream(77).child("d"))
        priv = calibrate(1.0, 1e-5)
        release = dgm_release(
            data, partition_evenly(11, 6), priv, RandomStream(77).child("r")
        )
        weights, _ = solve_system(ols_system(release, lam=1e-5))
        assert np.linalg.norm(weights) < 0.5 * np.linalg.norm(w_star)
        assert np.linalg.norm(weights - w_star) > 0.1


class TestBgmNonConvergence:
    def test_median_distance_flat_in_n(self):
        # medians at n=1e4, 1e5 and 1e6 stay within 25% of each other:
        # the un-debiased solution converges to a biased limit, not to
        # the generating weights.
        priv = calibrate(1.0, 1e-5)
        part = partition_evenly(11, 6)
        medians = []
        for n in (10**4, 10**5, 10**6):
            distances = []
            for seed in range(20):
                base = RandomStream(31337).child(n, seed)
                w_star = gen_ground_truth(10, base.child("t"))
                data = gen_matrix(n, w_star, base.child("d"))
                release = dgm_release(data, part, priv, base.child("r"))
                weights, _ = solve_system(ols_system(release, lam=1e-5))
                distances.append(np.linalg.norm(weights - w_star))
            medians.append(np.median(distances))
        spread = max(medians) - min(medians)
        assert spread / max(medians) < 0.25


class TestOlsConvergence:
    def test_distance_small_at_desk_scale(self):
        for seed in range(3):
            base = RandomStream(41).child(seed)
            w_star = gen_ground_truth(10, base.child("t"))
            data = gen_matrix(10**4, w_star, base.child("d"))
            weights, _ = solve_system(ols_system(normal_equations(data), lam=1e-5))
            assert np.linalg.norm(weights - w_star) <= 1e-3
