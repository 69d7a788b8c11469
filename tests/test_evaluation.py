import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mpdp import evaluation
from mpdp.evaluation import (
    TrialReport,
    aggregate,
    aggregates_to_csv,
    tail_probability,
    trials_to_csv,
    weight_distance,
)

from _oracles import norm_loops


def trial(method="rmgm", seed=0, n=100, eps=1.0, distance=0.5, **kw):
    defaults = dict(
        method=method,
        seed=seed,
        n=n,
        d=3,
        m=2,
        k=None,
        epsilon=eps,
        delta=1e-5,
        distance=distance,
        min_abs_eig=1.0,
    )
    defaults.update(kw)
    return TrialReport(**defaults)


class TestWeightDistance:
    def test_identical_vectors(self):
        assert weight_distance(np.ones(3), np.ones(3)) == 0.0

    def test_three_four_five(self):
        assert weight_distance(np.zeros(2), np.array([3.0, 4.0])) == 5.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=12), rng.normal(size=12)
        assert weight_distance(a, b) == pytest.approx(norm_loops(a - b), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weight_distance(np.ones(2), np.ones(3))


class TestTailProbability:
    def test_all_below(self):
        assert tail_probability([0.0, 0.0, 0.0], 0.1) == 0.0

    def test_half_above(self):
        assert tail_probability([0.05, 0.15], 0.1) == 0.5

    def test_strictly_greater(self):
        assert tail_probability([0.1], 0.1) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tail_probability([], 0.1)

    @given(st.lists(st.floats(0, 10), min_size=1, max_size=50))
    def test_monotone_nonincreasing_in_beta(self, values):
        probs = [tail_probability(values, b) for b in (0.05, 0.1, 0.2, 0.5)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert all(0.0 <= p <= 1.0 for p in probs)


class TestMse:
    def test_perfect_weights(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        w = np.array([2.0, -1.0])
        assert evaluation.test_mse(w, np.column_stack([x, x @ w])) == 0.0

    def test_zero_weights_unit_labels(self):
        data = np.column_stack([np.zeros((4, 2)), np.ones(4)])
        assert evaluation.test_mse(np.zeros(2), data) == 1.0

    def test_residual_is_squared(self):
        # one residual of 2: its square is 4, its absolute value 2
        assert evaluation.test_mse(np.array([2.0]), np.array([[1.0, 0.0]])) == 4.0


class TestAggregate:
    def test_single_trial_group(self):
        reports = aggregate([trial(distance=0.07)], betas=(0.05, 0.1))
        assert len(reports) == 1
        r = reports[0]
        assert r.mean_distance == r.median_distance == 0.07
        assert r.tail_probs == ((0.05, 1.0), (0.1, 0.0))
        assert r.num_trials == 1 and r.num_failed == 0
        assert r.std_error == 0.0

    def test_two_groups(self):
        reports = aggregate(
            [trial(n=100, seed=0), trial(n=200, seed=0)], betas=(0.1,)
        )
        assert [r.n for r in reports] == [100, 200]

    def test_order_invariance(self):
        trials = [trial(seed=s, distance=0.1 * s) for s in range(6)]
        a = aggregate(trials, betas=(0.1, 0.2))
        b = aggregate(list(reversed(trials)), betas=(0.1, 0.2))
        assert a == b

    def test_mixed_kinds_rejected(self):
        synthetic = trial(seed=0)
        real = trial(seed=1, distance=None, test_mse=0.01)
        with pytest.raises(ValueError, match="mixed"):
            aggregate([synthetic, real], betas=(0.1,))

    def test_pathology_rate_counts_small_eigenvalues(self):
        trials = [
            trial(seed=0, min_abs_eig=1e-3),
            trial(seed=1, min_abs_eig=0.5),
            trial(seed=2, min_abs_eig=5e-3),
            trial(seed=3, min_abs_eig=2.0),
        ]
        (report,) = aggregate(trials, betas=(0.1,))
        assert report.pathology_rate == 0.5

    def test_failed_trials_tracked_separately(self):
        trials = [
            trial(seed=0, distance=0.2),
            trial(seed=1, distance=None, status="singular", min_abs_eig=1e-9),
        ]
        (report,) = aggregate(trials, betas=(0.1,))
        assert report.num_trials == 2 and report.num_failed == 1
        assert report.mean_distance == 0.2
        assert report.pathology_rate == 0.5

    def test_non_finite_system_counts_as_pathological(self):
        # a system with a non-finite entry is singular with unknown (nan)
        # eigenvalues
        trials = [
            trial(seed=0, distance=None, status="singular", min_abs_eig=math.nan),
            trial(seed=1, min_abs_eig=0.5),
        ]
        (report,) = aggregate(trials, betas=(0.1,))
        assert report.pathology_rate == 0.5

    def test_std_error_is_stdev_over_sqrt_count(self):
        values = [0.1, 0.2, 0.4, 0.8]
        trials = [trial(seed=i, distance=v) for i, v in enumerate(values)]
        (report,) = aggregate(trials, betas=(0.1,))
        expected = np.std(values, ddof=1) / math.sqrt(len(values))
        assert report.std_error == pytest.approx(expected, rel=1e-12)


class TestCsvRendering:
    def test_trials_csv_shape_and_roundtrip_floats(self):
        text = trials_to_csv([trial(distance=1 / 3)])
        header, row = text.strip().split("\n")
        assert header == "method,seed,n,d,m,k,epsilon,delta,distance,test_mse,min_abs_eig,status"
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["distance"]) == 1 / 3

    def test_trial_report_validation(self):
        with pytest.raises(ValueError):
            trial(method="nope")
        with pytest.raises(ValueError):
            trial(distance=None)  # no metric at all
        with pytest.raises(ValueError):
            trial(test_mse=0.5)  # both metrics

    def test_aggregates_csv_contains_beta_columns(self):
        reports = aggregate([trial()], betas=(0.05, 0.5))
        text = aggregates_to_csv(reports)
        header = text.split("\n", 1)[0]
        assert "tail_prob_0.05" in header and "tail_prob_0.5" in header

    def test_identical_trial_multisets_render_identically(self):
        trials = [trial(seed=s, distance=0.01 * s) for s in range(5)]
        a = aggregates_to_csv(aggregate(trials, betas=(0.1,)))
        b = aggregates_to_csv(aggregate(list(reversed(trials)), betas=(0.1,)))
        assert a == b
