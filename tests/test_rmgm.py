import math
import warnings

import numpy as np
import pytest

from mpdp.config import build_config
from mpdp.data_model import partition_evenly
from mpdp.dp_core import calibrate, sensitivity_bound
from mpdp.evaluation import weight_distance
from mpdp.kernels import rademacher_matrix, sketch_product
from mpdp.linalg import SingularSystemError, normal_equations, solve_system
from mpdp.rmgm import K_GRID, choose_k, rmgm_release, rmgm_system
from mpdp.runner import _synthetic_trial
from mpdp.streams import RandomStream
from mpdp.synthetic import gen_ground_truth

from _oracles import gen_matrix, noise_one_shot, rmgm_oracle, trial_sketch

ZERO_NOISE = 0.0


def small_instance(seed, n=100, d=3, m=2):
    base = RandomStream(seed)
    w_star = gen_ground_truth(d, base.child("t"))
    data = gen_matrix(n, w_star, base.child("d"))
    return w_star, data, partition_evenly(d + 1, m)


def release_at(data, part, sigma, k, stream):
    """One release at k rows from a sketch of exactly k rows."""
    return rmgm_release(trial_sketch(data, part, k, stream), len(data), part, sigma, k, stream)


class TestChooseK:
    def test_synthetic_scaling(self):
        sigma = calibrate(1.0, 1e-5)
        assert choose_k(10**6, sigma, mode="synthetic") == (206,)

    def test_clamped_to_one(self):
        assert choose_k(25, 5.0, mode="synthetic") == (1,)

    def test_grid_mode_returns_candidates(self):
        assert choose_k(1000, 1.0, mode="grid") == (100, 300, 1000, 3000, 10000)
        assert choose_k(1000, 1.0, mode="grid", grid=(7, 8)) == (7, 8)
        assert K_GRID == (100, 300, 1000, 3000, 10000)

    def test_rate_mode_includes_dimension_factors(self):
        sigma = calibrate(1.0, 1e-5)
        expected = max(1, round(math.sqrt(10**6 * 10) / (math.sqrt(2) * sigma)))
        assert choose_k(10**6, sigma, d=10, d_max=2, mode="rate") == (expected,)

    def test_zero_sigma_rejected(self):
        # nan fails every comparison, and inf would round sqrt(n)/sigma to k = 1
        for sigma in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma"):
                choose_k(100, sigma, mode="synthetic")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            choose_k(100, 1.0, mode="magic")


class TestRelease:
    def test_shape_is_k_rows(self):
        _, data, part = small_instance(1, n=200, d=5, m=3)
        release = release_at(data, part, calibrate(1.0, 1e-5), 7, RandomStream(2))
        assert release.shape == (7, 6)

    def test_single_mixing_seed_shared(self):
        # a trial's rmgm rows train on releases of B D, B from the one
        # seed child("mixing").seed64() of the trial's stream
        cfg = build_config({}, dict(d=3, m=2, methods=("rmgm",), eps_grid=(1.0, 0.5), seeds=1,
                                    root_seed=4))
        base = RandomStream(4).child("synthetic", 0)
        w_star = gen_ground_truth(3, base.child("truth"))
        data = gen_matrix(100, w_star, base.child("data"))
        part = partition_evenly(4, 2)
        _, _, reports, _ = _synthetic_trial(cfg, 100, 0)
        seed = base.child("mixing").seed64()
        for i, report in enumerate(reports):  # one k per epsilon, in eps_grid order
            product = sketch_product(seed, data, report.k)
            release = rmgm_release(product, len(data), part, calibrate(report.epsilon, cfg.delta),
                                   report.k, base.child("rmgm", i, report.k))
            weights, _ = solve_system(rmgm_system(normal_equations(release), lam=cfg.lam))
            assert report.distance == weight_distance(weights, w_star)

    def test_forced_all_ones_mixing_row(self):
        # with B = [1 1 ... 1] and no noise the single release row is the
        # column-sum vector of the data (sqrt(1) = 1)
        _, data, part = small_instance(5, n=40)
        product = np.ones((1, 40)) @ data
        release = rmgm_release(product, len(data), part, ZERO_NOISE, 1, RandomStream(6))
        np.testing.assert_allclose(
            release[0], data.sum(axis=0), rtol=1e-12
        )

    def test_per_party_blockwise_consistency(self):
        # slicing a party block out and releasing it against the shared
        # mixing seed plus its own noise stream reproduces the joint
        # release bit for bit
        _, data, part = small_instance(9, n=64, d=6, m=3)  # blocks (3, 2, 2)
        sigma = calibrate(0.5, 1e-4)
        root = RandomStream(10)
        k = 6
        release = release_at(data, part, sigma, k, root)
        mixing_seed = root.child("mixing").seed64()
        std = sensitivity_bound(part.d_max) * sigma
        for j, (a, b) in enumerate(part.blocks, start=1):
            block = np.ascontiguousarray(data[:, a:b])
            mixed = sketch_product(mixing_seed, block, k) / math.sqrt(k)
            mixed += noise_one_shot(k, b - a, std, root.child(j))
            np.testing.assert_array_equal(release[:, a:b], mixed)

    def test_rejects_out_of_bounds_data(self):
        data = np.array([[3.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="bound"):
            release_at(data, partition_evenly(2, 2), ZERO_NOISE, 1, RandomStream(0))

    def test_warns_when_k_not_small(self):
        _, data, part = small_instance(11, n=20)
        with pytest.warns(UserWarning, match="k="):
            release_at(data, part, ZERO_NOISE, 30, RandomStream(12))

    def test_gram_preserved_without_noise(self):
        # sigma = 0, k = 4000, n = 1e4: the compressed Gram matrix stays
        # entrywise within 0.2 of the raw one (empirical scale ~0.02) in
        # at least 95% of 50 streams.
        hits = 0
        for seed in range(50):
            base = RandomStream(13000 + seed)
            w_star = gen_ground_truth(10, base.child("t"))
            data = gen_matrix(10**4, w_star, base.child("d"))
            part = partition_evenly(11, 6)
            release = release_at(data, part, ZERO_NOISE, 4000, base.child("r"))
            x = data[:, :-1]
            x_mixed = release[:, :-1]
            deviation = np.abs(x_mixed.T @ x_mixed / len(data) - x.T @ x / len(data)).max()
            hits += deviation <= 0.2
        assert hits >= 48  # 0.95 * 50, rounded up


class TestSharedSketch:
    def test_release_from_larger_sketch_is_bit_identical(self):
        # one sketch at k_max serves every smaller k: the release equals
        # the one from a sketch of exactly k rows, for every k
        _, data, part = small_instance(21, n=300, d=5, m=3)
        sigma = calibrate(0.5, 1e-4)
        root = RandomStream(22)
        sketch = trial_sketch(data, part, 41, root)
        assert sketch.shape == (41, 6)
        for k in (1, 2, 3, 6, 7, 13, 40, 41):
            shared = rmgm_release(sketch, len(data), part, sigma, k, root.child("r", k))
            alone = rmgm_release(trial_sketch(data, part, k, root), len(data), part, sigma, k,
                                 root.child("r", k))
            np.testing.assert_array_equal(shared, alone)

    def test_party_rebuilds_its_block_from_a_shared_sketch(self):
        # party j sketches only its own block at k rows and adds its own
        # noise: that is its block of a release cut from a k_max sketch
        _, data, part = small_instance(23, n=70, d=6, m=3)  # blocks (3, 2, 2)
        sigma = calibrate(0.5, 1e-4)
        root = RandomStream(24)
        sketch = trial_sketch(data, part, 33, root)
        std = sensitivity_bound(part.d_max) * sigma
        for k in (2, 5, 33):
            release = rmgm_release(sketch, len(data), part, sigma, k, root.child("r", k))
            for j, (a, b) in enumerate(part.blocks, start=1):
                block = np.ascontiguousarray(data[:, a:b])
                mixed = sketch_product(root.child("mixing").seed64(), block, k) / math.sqrt(k)
                mixed += noise_one_shot(k, b - a, std, root.child("r", k, j))
                np.testing.assert_array_equal(release[:, a:b], mixed)

    def test_release_from_the_sketch_view_is_c_ordered(self):
        # SketchSum.result() is a transposed view of one row per column; a
        # release in that order would change the bits of its Gram, which
        # is a BLAS product that rounds by its operand's memory order
        _, data, part = small_instance(31, n=300, d=6, m=3)
        sigma = calibrate(0.5, 1e-4)
        root = RandomStream(32)
        sketch = trial_sketch(data, part, 40, root)
        assert not sketch.flags.c_contiguous
        for k in (2, 7, 40):
            release = rmgm_release(sketch, len(data), part, sigma, k, root.child("r", k))
            copied = rmgm_release(np.ascontiguousarray(sketch), len(data), part, sigma, k,
                                  root.child("r", k))
            assert release.flags.c_contiguous
            assert (normal_equations(release).gram.tobytes()
                    == normal_equations(copied).gram.tobytes())

    def test_k_beyond_sketch_rejected(self):
        _, data, part = small_instance(25)
        sketch = trial_sketch(data, part, 8, RandomStream(26))
        for k in (0, 9):
            with pytest.raises(ValueError, match="k must be"):
                rmgm_release(sketch, len(data), part, ZERO_NOISE, k, RandomStream(27))

    def test_warns_for_each_release_k_not_small(self):
        _, data, part = small_instance(28, n=20)
        sketch = trial_sketch(data, part, 30, RandomStream(29))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rmgm_release(sketch, len(data), part, ZERO_NOISE, 19, RandomStream(30))
        with pytest.warns(UserWarning, match="k=20 "):
            rmgm_release(sketch, len(data), part, ZERO_NOISE, 20, RandomStream(30))


class TestSensitivity:
    @pytest.mark.parametrize("flip", [True, False], ids=["sign_flipped_corner", "other_corner"])
    def test_block_moves_by_exactly_the_row_change(self, flip):
        # neighbouring datasets differ in row i, a corner of [-1, 1]^(d+1)
        # replaced by its sign flip or by another corner.  Every column of
        # B_k has norm sqrt(k), so for each k cut from one shared sketch
        # party j's noiseless block moves by exactly ||delta_j||, which is
        # within sensitivity_bound(d_max)
        rng = np.random.default_rng(31)
        _, data, part = small_instance(32, n=64, d=6, m=3)
        k_max = 24
        for i in (0, 17, 63):
            corner = rng.choice([-1.0, 1.0], size=data.shape[1])
            other = -corner if flip else rng.choice([-1.0, 1.0], size=data.shape[1])
            values, neighbour = data.copy(), data.copy()
            values[i], neighbour[i] = corner, other
            root = RandomStream(33 + i)
            sketches = [
                trial_sketch(v, part, k_max, root)
                for v in (values, neighbour)
            ]
            for k in (1, 2, 5, 12, k_max):
                a_rel, b_rel = (rmgm_release(s, len(data), part, ZERO_NOISE, k, root)
                                for s in sketches)
                for a, b in part.blocks:
                    change = np.linalg.norm(corner[a:b] - other[a:b])
                    moved = np.linalg.norm(
                        b_rel[:, a:b] - a_rel[:, a:b]
                    )
                    np.testing.assert_allclose(moved, change, rtol=1e-12)
                    assert moved <= sensitivity_bound(part.d_max) * (1 + 1e-12)


class TestTrain:
    def test_identity_padding_recovers_weights(self):
        # B = sqrt(k) * [I_k | 0] selects the first k rows exactly, so
        # training on the release is least squares on noise-free rows
        w_star, data, part = small_instance(14, n=50, d=3)
        k = 10
        forced = np.zeros((k, 50))
        forced[:, :k] = np.sqrt(k) * np.eye(k)
        release = rmgm_release(forced @ data, len(data), part, ZERO_NOISE, k,
                               RandomStream(15))
        weights, _ = solve_system(rmgm_system(normal_equations(release), lam=0.0))
        assert np.linalg.norm(weights - w_star) < 1e-6

    def test_matches_brute_force_oracle(self):
        _, data, part = small_instance(16, n=100, d=3)
        sigma = calibrate(1.0, 0.5)
        release = release_at(data, part, sigma, 20, RandomStream(17))
        weights, _ = solve_system(rmgm_system(normal_equations(release), lam=1e-5))
        expected = rmgm_oracle(release, 1e-5)
        assert np.abs(weights - expected).max() < 1e-10

    def test_rank_deficient_without_ridge(self):
        _, data, part = small_instance(18, n=50, d=3)
        release = release_at(data, part, calibrate(1.0, 1e-5), 2, RandomStream(19))
        with pytest.raises(SingularSystemError):
            solve_system(rmgm_system(normal_equations(release), lam=0.0))

    def test_gram_matrix_is_psd(self):
        for seed in range(10):
            _, data, part = small_instance(20 + seed, n=80, d=4)
            release = release_at(
                data, part, calibrate(1.0, 1e-3), 6, RandomStream(40 + seed)
            )
            x = release[:, :-1]
            assert np.linalg.eigvalsh(x.T @ x).min() >= -1e-10


class TestConvergenceTendency:
    def test_median_distance_shrinks_with_n(self):
        # noise-free path: k = round(sqrt(n)/sigma) grows with n, and the
        # compression error alone shrinks; 30 seeds at two sizes separate
        # cleanly
        sigma = calibrate(1.0, 1e-5)
        medians = []
        for n in (10**4, 9 * 10**4):
            distances = []
            for seed in range(30):
                base = RandomStream(60000 + seed)
                w_star = gen_ground_truth(10, base.child("t"))
                data = gen_matrix(n, w_star, base.child("d"))
                part = partition_evenly(11, 6)
                (k,) = choose_k(n, sigma, mode="synthetic")
                release = release_at(data, part, sigma, k, base.child("r"))
                weights, _ = solve_system(rmgm_system(normal_equations(release), lam=1e-5))
                distances.append(np.linalg.norm(weights - w_star))
            medians.append(np.median(distances))
        assert medians[1] < medians[0]

    def test_distance_nondecreasing_in_sigma(self):
        # fixed n = 1e5: shrinking the budget (growing sigma) never helps
        medians = []
        for eps in (1.0, 0.3, 0.1):
            sigma = calibrate(eps, 1e-5)
            distances = []
            for seed in range(100):
                base = RandomStream(70000 + seed)
                w_star = gen_ground_truth(10, base.child("t"))
                data = gen_matrix(10**5, w_star, base.child("d"))
                part = partition_evenly(11, 6)
                (k,) = choose_k(10**5, sigma, mode="synthetic")
                release = release_at(data, part, sigma, k, base.child("r", int(eps * 10)))
                weights, _ = solve_system(rmgm_system(normal_equations(release), lam=1e-5))
                distances.append(np.linalg.norm(weights - w_star))
            medians.append(np.median(distances))
        assert medians[0] <= medians[1] <= medians[2]
