import numpy as np
import pytest
from scipy.stats import ks_2samp
from mpdp.config import build_config
from mpdp.data_model import partition_evenly
from mpdp.dgm import dgm_release, dgm_system, sample_dgm_gram
from mpdp.dp_core import PartyNoise, calibrate, sensitivity_bound
from mpdp.linalg import (
    NormalEquations, SingularSystemError, _block_rows, gram_root, normal_equations, solve_system,
)
from mpdp.runner import _synthetic_trial
from mpdp.streams import RandomStream
from mpdp.synthetic import gen_ground_truth

from _oracles import dgm_oracle, dgm_published, gen_matrix, noise_one_shot

ZERO_NOISE = 0.0


def small_instance(seed, n=60, d=3):
    base = RandomStream(seed)
    w_star = gen_ground_truth(d, base.child("t"))
    data = gen_matrix(n, w_star, base.child("d"))
    return w_star, data, partition_evenly(d + 1, 2)


class TestRelease:
    def test_zero_sigma_release_is_bitwise_identity(self):
        _, data, part = small_instance(1)
        public = dgm_published(data, part, ZERO_NOISE, RandomStream(2))
        np.testing.assert_array_equal(public, data)
        assert not np.shares_memory(public, data)
        release = dgm_release(data, part, ZERO_NOISE, RandomStream(2))
        clean = normal_equations(data)
        assert np.array_equal(release.gram, clean.gram)

    def test_shape_and_metadata(self):
        _, data, part = small_instance(3, n=40, d=5)
        sigma = calibrate(0.5, 1e-5)
        release = dgm_release(data, part, sigma, RandomStream(4))
        assert release.gram.shape == (6, 6)
        assert release.n == 40
        public = dgm_published(data, part, sigma, RandomStream(4))
        assert public.shape == (40, 6)
        assert public.dtype == np.float64

    def test_streamed_normal_equations_equal_the_published_matrix(self):
        # two whole row blocks and a 3-row remainder, uneven party blocks
        # (2, 2, 2, 2, 2, 1): the normal equations streamed block by block
        # are bit for bit those of the assembled published matrix, and
        # that matrix is the data plus one whole-matrix draw per party
        n = 2 * _block_rows(11) + 3
        w_star = gen_ground_truth(10, RandomStream(16).child("t"))
        data = gen_matrix(n, w_star, RandomStream(16).child("d"))
        part = partition_evenly(11, 6)
        sigma = calibrate(1.0, 1e-5)
        root = RandomStream(17)
        release = dgm_release(data, part, sigma, root)
        public = dgm_published(data, part, sigma, root)
        held = normal_equations(public)
        assert np.array_equal(release.gram, held.gram)
        assert release.n == n
        std = sensitivity_bound(part.d_max) * sigma
        expected = np.concatenate(
            [data[:, a:b] + noise_one_shot(n, b - a, std, root.child(j))
             for j, (a, b) in enumerate(part.blocks, start=1)],
            axis=1,
        )
        assert np.array_equal(public, expected)

    def test_blockwise_equals_concatenated(self):
        # releasing each party block against its derived stream, with std
        # sensitivity_bound(d_max) * sigma, and concatenating reproduces
        # the single-call release bit for bit
        _, data, part = small_instance(7, n=30, d=6)  # blocks (4, 3): d_max is not every d_j
        sigma = calibrate(1.0, 1e-4)
        root = RandomStream(8)
        release = dgm_published(data, part, sigma, root)
        std = sensitivity_bound(part.d_max) * sigma
        blocks = []
        for j, (a, b) in enumerate(part.blocks, start=1):
            noise = noise_one_shot(len(data), b - a, std, root.child(j))
            blocks.append(data[:, a:b] + noise)
        np.testing.assert_array_equal(release, np.concatenate(blocks, axis=1))

    def test_rejects_out_of_bounds_data(self):
        data = np.array([[0.5, 2.0], [0.1, 0.2]])
        with pytest.raises(ValueError, match="bound"):
            dgm_release(data, partition_evenly(2, 2), calibrate(1.0, 1e-5), RandomStream(0))

    def test_noise_variance_at_scale(self):
        # per-entry noise variance 4*d_max*sigma^2 = 187.777 at eps=1,
        # delta=1e-5, d_max=2; 1.1e6 entries put the sample variance
        # within 3%.
        w_star = gen_ground_truth(10, RandomStream(9).child("t"))
        data = gen_matrix(10**5, w_star, RandomStream(9).child("d"))
        sigma = calibrate(1.0, 1e-5)
        part = partition_evenly(11, 6)
        public = dgm_published(data, part, sigma, RandomStream(9).child("r"))
        noise = public - data
        target = 4 * part.d_max * sigma**2
        assert abs(noise.var() - target) / target < 0.03


class TestTrain:
    def test_zero_noise_zero_ridge_reduces_to_exact_ols(self):
        w_star, data, part = small_instance(10, n=500, d=4)
        release = dgm_release(data, part, ZERO_NOISE, RandomStream(11))
        weights, _ = solve_system(dgm_system(release, part.d_max, ZERO_NOISE, lam=0.0))
        assert np.linalg.norm(weights - w_star) < 1e-8

    def test_matches_brute_force_oracle(self):
        _, data, part = small_instance(12, n=50, d=3)
        sigma = calibrate(1.0, 0.9)
        release = dgm_release(data, part, sigma, RandomStream(13))
        weights, _ = solve_system(dgm_system(release, part.d_max, sigma, lam=1e-5))
        public = dgm_published(data, part, sigma, RandomStream(13))
        expected = dgm_oracle(public, part.d_max, sigma, 1e-5)
        assert np.abs(weights - expected).max() < 1e-10

    def test_singular_system_raises(self):
        # duplicated feature columns leave the de-biased matrix rank
        # deficient; with no ridge the solve must refuse
        column = np.array([0.5, -0.5, 0.25, -0.25])
        data = np.column_stack([column, column, np.ones(4) * 0.1])
        release = dgm_release(data, partition_evenly(3, 2), ZERO_NOISE, RandomStream(0))
        with pytest.raises(SingularSystemError):
            solve_system(dgm_system(release, 2, ZERO_NOISE, lam=0.0))

    def test_hessian_estimate_is_unbiased(self):
        # mean of the de-biased Gram matrix (the release's raw Gram
        # minus the bias dgm_system removes) over repeated releases of one
        # fixed dataset stays within 3 standard errors of the raw Gram
        w_star = gen_ground_truth(5, RandomStream(14).child("t"))
        data = gen_matrix(10**4, w_star, RandomStream(14).child("d"))
        part = partition_evenly(6, 3)
        sigma = calibrate(1.0, 1e-2)
        x = data[:, :-1]
        raw_gram = x.T @ x / len(data)
        bias = 4 * part.d_max * sigma**2 * np.eye(5)
        samples = []
        for seed in range(200):
            release = dgm_release(data, part, sigma, RandomStream(15).child(seed))
            samples.append(release.gram[:-1, :-1] / len(data) - bias)
        samples = np.asarray(samples)
        mean = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
        assert (np.abs(mean - raw_gram) <= 3 * stderr).all()


class TestSensitivity:
    """The Gaussian mechanism of the DGM release, on its noise step: a
    neighbouring dataset moves each party's block by at most the
    sensitivity bound of the widest block, and the noise is exactly that
    bound times sigma times the party stream's standard normal draws."""

    @pytest.mark.parametrize("flip", [True, False], ids=["sign_flip", "other_corner"])
    def test_block_moves_by_at_most_the_bound(self, flip):
        # row i replaced by a corner of [-1, 1]^(d+1) in one dataset and by
        # its sign flip (or another corner) in the other, released with
        # sigma = 0 in two pushes: party j's block moves by exactly the
        # row's change in that block, 2 sqrt(d_j) for a flip, and never by
        # more than sensitivity_bound(d_max)
        rng = np.random.default_rng(41)
        _, data, _ = small_instance(42, n=64, d=6)
        part = partition_evenly(7, 3)  # blocks (3, 2, 2)
        bound = sensitivity_bound(part.d_max)
        for i in (0, 17, 63):
            corner = rng.choice([-1.0, 1.0], size=7)
            other = -corner if flip else rng.choice([-1.0, 1.0], size=7)
            values, neighbour = data.copy(), data.copy()
            values[i], neighbour[i] = corner, other
            released = []
            for v in (values, neighbour):
                noise = PartyNoise(part, ZERO_NOISE, RandomStream(43))
                released.append(np.concatenate([noise.add_to(v[:40].copy()), noise.add_to(v[40:].copy())]))
            for a, b in part.blocks:
                moved = np.linalg.norm(released[1][:, a:b] - released[0][:, a:b])
                assert moved == np.linalg.norm(corner[a:b] - other[a:b])
                assert moved <= bound
                if flip:
                    assert moved == 2.0 * np.sqrt(b - a)

    def test_noise_is_bound_times_sigma_times_the_party_stream(self):
        # uneven blocks (3, 2, 2), so d_max is not every d_j; the rows are
        # pushed in three calls, and each party's noise is still one
        # (n, d_j) standard normal draw from its stream, scaled by
        # sensitivity_bound(d_max) * sigma, bit for bit
        part = partition_evenly(7, 3)
        sigma = calibrate(0.5, 1e-5)
        std = sensitivity_bound(part.d_max) * sigma
        values = RandomStream(44).generator().uniform(-1, 1, size=(1000, 7))
        noise = PartyNoise(part, sigma, RandomStream(45))
        assert noise.std == std
        released = np.concatenate([noise.add_to(values[r0:r1].copy())
                                   for r0, r1 in ((0, 1), (1, 600), (600, 1000))])
        for j, (a, b) in enumerate(part.blocks, start=1):
            draws = RandomStream(45).child(j).generator().standard_normal((1000, b - a))
            assert np.array_equal(released[:, a:b], values[:, a:b] + draws * std)


def noise_of_std(std, part):
    """The noise multiplier sigma whose release noise has standard deviation std."""
    return std / sensitivity_bound(part.d_max)


class TestSampler:
    """``sample_dgm_gram`` against the literal mechanism ``dgm_release``,
    on one fixed 4-column D per branch: n = 10 (W by Bartlett), n = 6 (W
    from its 2-by-4 factor), n = 3 < p (no W), and n = 10 with labels
    that are a combination of the features, as in a synthetic trial (T
    has 3 rows, W 7 degrees of freedom), once with features a third as
    wide, so the label's Gram diagonal is the largest and ``gram_root``
    pivots on the label row first.  The noise std is 1.3, so a variance
    used as a std shows."""

    DRAWS = 3000
    STD = 1.3

    @pytest.mark.parametrize("n, scale, weights", [
        (10, 1, None), (6, 1, None), (3, 1, None),
        (10, 1, (0.3, -0.2, 0.4)), (10, 3, (0.9, -0.9, 0.9)),  # every |entry| <= 0.9
    ], ids=["bartlett", "direct_factor", "n_below_p", "exact_labels", "label_pivots_first"])
    def test_matches_the_literal_release_in_distribution(self, n, scale, weights):
        data = np.random.default_rng(n).uniform(-1, 1, size=(n, 4))
        if weights is not None:
            data[:, :-1] /= scale
            data[:, -1] = data[:, :-1] @ np.array(weights)
        part = partition_evenly(4, 2)
        sigma = noise_of_std(self.STD, part)
        stats = normal_equations(data)
        root = gram_root(stats.gram, stats.n)
        upper = np.triu_indices(4)
        literal = np.array([dgm_release(data, part, sigma, RandomStream(5).child(i)).gram
                            for i in range(self.DRAWS)])
        sampled = np.array([sample_dgm_gram(stats, root, part, sigma,
                                            RandomStream(6).child(i)).gram
                            for i in range(self.DRAWS)])
        # the 10 upper-triangle entries: means within 4.5 standard errors
        # of their difference, variances within 20%
        a, b = literal[:, upper[0], upper[1]], sampled[:, upper[0], upper[1]]
        var_a, var_b = a.var(axis=0, ddof=1), b.var(axis=0, ddof=1)
        z = (b.mean(axis=0) - a.mean(axis=0)) / np.sqrt((var_a + var_b) / self.DRAWS)
        assert np.abs(z).max() < 4.5
        assert (np.abs(var_b / var_a - 1.0) < 0.2).all()

        def min_abs_eig(grams):  # of the de-biased matrix dgm_system builds
            debiased = grams[:, :-1, :-1] / n - self.STD**2 * np.eye(3)
            return np.abs(np.linalg.eigvalsh(debiased)).min(axis=1)

        assert ks_2samp(min_abs_eig(literal), min_abs_eig(sampled)).pvalue > 1e-3

    @pytest.mark.parametrize("n, normals, chisquares", [
        (10, [4 * 4, 4 * 3 // 2], [4]),  # Z, then L's lower triangle
        (6, [4 * 4, 2 * 4], []),         # Z, then W's 2-by-4 factor
        (3, [3 * 4], []),                # 3 rows of T and of Z, no W
    ], ids=["bartlett", "direct_factor", "n_below_p"])
    def test_draws_of_each_branch(self, draws, n, normals, chisquares):
        stats = normal_equations(np.random.default_rng(n).uniform(-1, 1, size=(n, 4)))
        part = partition_evenly(4, 2)
        release = sample_dgm_gram(stats, gram_root(stats.gram, stats.n), part,
                                  noise_of_std(self.STD, part), RandomStream(7))
        assert release.n == n and np.isfinite(release.gram).all()
        assert [e for _, method, e in draws if method == "standard_normal"] == normals
        assert [e for _, method, e in draws if method == "chisquare"] == chisquares

    def test_zero_noise_returns_the_data_equations(self, draws):
        # bit for bit: no Gram rebuilt from T
        stats = normal_equations(np.random.default_rng(8).uniform(-1, 1, size=(30, 5)))
        release = sample_dgm_gram(stats, gram_root(stats.gram, stats.n), partition_evenly(5, 2),
                                  ZERO_NOISE, RandomStream(9))
        assert release is stats and draws == []

    def test_needs_y_transpose_y(self):
        # gram_root factors the whole Gram of [X | y], so no normal
        # equations come without y'y: the X'X and X'y rows alone are rejected
        held = normal_equations(np.ones((5, 3)) / 2)
        with pytest.raises(ValueError, match="p-by-p gram"):
            NormalEquations(gram=held.gram[:-1], n=held.n)


class TestTrialDraws:
    def test_dgm_stream_draws_do_not_grow_with_n(self, draws):
        # one n = 70 001 trial with three epsilon: each epsilon's DGM
        # stream draws Z (10 x 11: the labels are X w*, so [X | y] has
        # rank 10), 11 chi-squares and L's 55 normals, where adding the
        # noise to the rows drew 70 001 x 11
        cfg = build_config({}, dict(eps_grid=(1.0, 0.3, 0.1), seeds=1, root_seed=10))
        _, _, reports, _ = _synthetic_trial(cfg, 70_001, 0)
        assert sum(r.method in ("dgm", "bgm") for r in reports) == 6
        base = RandomStream(10).child("synthetic", 0)
        for i in range(3):
            prefix = base.child("dgm", i).path
            drawn = sum(e for path, _, e in draws if path[: len(prefix)] == prefix)
            assert drawn == 10 * 11 + 11 + 55
        dgm = base.child("dgm").path
        assert sum(e for path, _, e in draws if path[: len(dgm)] == dgm) == 3 * 176
