import math

import numpy as np
import pytest

from mpdp.data_model import partition_evenly
from mpdp.dgm import dgm_release, sample_dgm_gram
from mpdp.dp_core import PartyNoise, calibrate, sensitivity_bound
from mpdp.kernels import _COL_CHUNK, chunk_views, sketch_product
from mpdp.linalg import gram_root, normal_equations
from mpdp.rmgm import rmgm_release
from mpdp.streams import RandomStream

from _oracles import noise_one_shot


class TestCalibrate:
    def test_reference_values(self):
        # sqrt(2*ln(1.25e5)) evaluated at high precision: 4.8448052626053894...
        assert calibrate(1.0, 1e-5) == pytest.approx(4.844805262605389, abs=1e-12)
        assert calibrate(0.1, 1e-5) == pytest.approx(48.44805262605389, abs=1e-11)

    def test_inverse_epsilon_scaling(self):
        ten_x = calibrate(0.1, 1e-5)
        assert ten_x == pytest.approx(10 * calibrate(1.0, 1e-5), rel=1e-15)

    def test_deterministic(self):
        assert calibrate(0.37, 1e-4) == calibrate(0.37, 1e-4)

    @pytest.mark.parametrize("eps", [0.0, -0.5, 1.0001, 2.0])
    def test_epsilon_domain(self, eps):
        with pytest.raises(ValueError):
            calibrate(eps, 1e-5)

    @pytest.mark.parametrize("eps", [1e-300, 1e-320, 5e-324])
    def test_epsilon_whose_noise_variance_overflows(self, eps):
        # sigma^2 is inf (eps = 1e-300) or sigma itself is (1e-320, 5e-324)
        with pytest.raises(ValueError, match="noise variance overflows"):
            calibrate(eps, 1e-5)
        assert math.isfinite(calibrate(1e-153, 1e-5) ** 2)

    @pytest.mark.parametrize("delta", [0.0, -1e-5, 1.0, 1.5])
    def test_delta_domain(self, delta):
        with pytest.raises(ValueError):
            calibrate(1.0, delta)

    def test_epsilon_sigma_product_constant_for_fixed_delta(self):
        # sigma * epsilon recovers sqrt(2*ln(1.25/delta)) for every epsilon
        # (up to a final rounding: the product is one division then one multiply).
        for delta in (1e-6, 1e-5, 1e-3, 0.1):
            target = math.sqrt(2 * math.log(1.25 / delta))
            for eps in np.linspace(0.01, 1.0, 25):
                assert calibrate(eps, delta) * eps == pytest.approx(target, rel=1e-15)

    def test_monotone_in_epsilon_and_delta(self):
        epsilons = np.linspace(0.05, 1.0, 12)
        deltas = np.geomspace(1e-8, 0.5, 10)
        for delta in deltas:
            sigmas = [calibrate(e, delta) for e in epsilons]
            assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
        for eps in epsilons:
            sigmas = [calibrate(eps, d) for d in deltas]
            assert all(a > b for a, b in zip(sigmas, sigmas[1:]))


class TestSensitivityBound:
    def test_values(self):
        assert sensitivity_bound(1) == 2.0
        assert sensitivity_bound(4) == 4.0
        # 2*sqrt(10) at high precision: 6.3245553203367586...
        assert sensitivity_bound(10) == pytest.approx(6.324555320336759, abs=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            sensitivity_bound(0)


def _dgm_sample(data, part, sigma, stream):
    stats = normal_equations(data)
    return sample_dgm_gram(stats, gram_root(stats.gram, stats.n), part, sigma, stream)


# every release that turns sigma into noise, called as (data, partition, sigma, stream)
RELEASES = {
    "party_noise": lambda data, part, sigma, stream:
        PartyNoise(part, sigma, stream).add_to(data.copy()),
    "dgm_release": dgm_release,
    "sample_dgm_gram": _dgm_sample,
    "rmgm_release": lambda data, part, sigma, stream:
        rmgm_release(sketch_product(stream.seed64(), data, 4), len(data), part, sigma, 4, stream),
}


class TestNoiseStd:
    # a NaN sigma fails every comparison: unchecked, each release would
    # publish the data with no noise at all
    @pytest.mark.parametrize("release", RELEASES.values(), ids=RELEASES)
    @pytest.mark.parametrize("sigma", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
    def test_invalid_sigma_rejected_by_every_release(self, release, sigma):
        data = RandomStream(50).generator().uniform(-1, 1, size=(20, 4))
        with pytest.raises(ValueError, match="sigma"):
            release(data, partition_evenly(4, 2), sigma, RandomStream(51))


class _OneColumn:
    """One party holding one column: d_max = 1, so std = 2 * sigma."""

    blocks = ((0, 1),)
    m = 1
    d_max = 1


def one_column_noise(rows, std, stream):
    """A zero column after ``PartyNoise.add_to`` at per-entry std ``std``
    (noise multiplier std / 2)."""
    return PartyNoise(_OneColumn(), std / 2, stream).add_to(np.zeros((rows, 1)))


class TestGaussianNoise:
    def test_deterministic_under_fixed_stream(self):
        part, sigma = partition_evenly(4, 2), calibrate(1.0, 1e-5)
        a = PartyNoise(part, sigma, RandomStream(3).child("x")).add_to(np.zeros((2, 4)))
        b = PartyNoise(part, sigma, RandomStream(3).child("x")).add_to(np.zeros((2, 4)))
        np.testing.assert_array_equal(a, b)
        assert (a != 0.0).all()

    def test_sample_variance_at_scale(self):
        # 1e6 draws at std 2: sample variance concentrates within 1% of 4
        # (the band is ~7 standard deviations of the chi-square spread).
        noise = one_column_noise(10**6, 2.0, RandomStream(11))
        var = noise.var(ddof=1)
        assert abs(var - 4.0) < 0.04

    def test_variance_band_over_many_streams(self):
        # empirical variance within 5*s^2*sqrt(2/N) of s^2; a 5-sigma band,
        # so over 100 streams at least 99 must land inside.
        n = 10**6
        band = 5 * math.sqrt(2 / n)
        hits = 0
        for seed in range(100):
            noise = one_column_noise(n, 1.0, RandomStream(500 + seed))
            hits += abs(noise.var(ddof=1) - 1.0) <= band
        assert hits >= 99


class _OneParty:
    """A one-party stand-in: PartyPartition needs m >= 2, and PartyNoise
    reads only ``blocks``, ``m`` and ``d_max``."""

    blocks = ((0, 11),)
    m = 1
    d_max = 11


class TestPartyNoiseColumns:
    # 11 columns over two chunk_views chunks (16 384 rows and a 5-row
    # remainder): the noise is added one column at a time, so cover the
    # widest party block (m = 1) and one column per party (m = d + 1)
    @pytest.mark.parametrize("part", [_OneParty(), partition_evenly(11, 11)], ids=["m1", "m11"])
    def test_chunks_match_one_draw_per_party(self, part):
        n = _COL_CHUNK + 5
        values = RandomStream(40).generator().uniform(-1, 1, size=(n, 11))
        sigma = calibrate(0.5, 1e-5)
        std = sensitivity_bound(part.d_max) * sigma
        noise = PartyNoise(part, sigma, RandomStream(41))
        released = np.concatenate([noise.add_to(chunk.copy()) for chunk in chunk_views(values)])
        expected = np.concatenate(
            [values[:, a:b] + noise_one_shot(n, b - a, std, RandomStream(41).child(j))
             for j, (a, b) in enumerate(part.blocks, start=1)],
            axis=1,
        )
        assert np.array_equal(released, expected)


class TestInnerProductPreservation:
    def test_unit_vector_inner_products_survive_mixing(self):
        # 12 unit vectors in dimension 1e4 projected to k=4000 rows:
        # every pairwise inner product moves by at most 0.2.  The
        # empirical deviation scale is ~0.016, so 48 of 50 streams
        # passing is a conservative floor.
        k, dim, limit = 4000, 10**4, 0.2
        passes = 0
        for seed in range(50):
            rng = RandomStream(9000 + seed).generator()
            vectors = rng.standard_normal((dim, 12))
            vectors /= np.linalg.norm(vectors, axis=0, keepdims=True)
            mixing_seed = RandomStream(9000 + seed).child("mixing").seed64()
            projected = sketch_product(mixing_seed, vectors, k) / math.sqrt(k)
            deviation = np.abs(projected.T @ projected - vectors.T @ vectors).max()
            passes += deviation <= limit
        assert passes >= 48
