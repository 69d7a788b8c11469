"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 3-5, and the check of RMGM's predicted rate and constant that
sharpens criterion 3, share one desk-scale sweep (n up to 3e5, 200
seeds) driven through the public runner; it takes a few minutes on a
laptop.  The real-data spot check (criterion 7) runs only when the user
has fetched the insurance dataset (set MPDP_INSURANCE_CSV or place it
at data/insurance.csv); CI falls back to the bundled 100-row fixture.
"""

import math
import os
import time
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from mpdp.config import build_config
from mpdp.data_model import load_csv, partition_evenly
from mpdp.dgm import dgm_release, dgm_system
from mpdp.dp_core import calibrate, sensitivity_bound
from mpdp.evaluation import aggregate, tail_probability, weight_distance
from mpdp.kernels import sketch_product
from mpdp.linalg import normal_equations, ols_system, solve_system
from mpdp.rmgm import rmgm_release, rmgm_system
from mpdp.runner import best_k_rows, run_real
from mpdp.streams import RandomStream
from mpdp.synthetic import gen_ground_truth

from _oracles import (
    dgm_oracle, dgm_published, gen_matrix, ols_oracle, rmgm_oracle, trial_sketch,
)
from conftest import SWEEP_N_GRID

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "insurance_sample.csv")

REAL_INSURANCE = os.environ.get(
    "MPDP_INSURANCE_CSV",
    os.path.join(os.path.dirname(__file__), "..", "data", "insurance.csv"),
)


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def by_method(sweep_output, method, n):
    return [t for t in sweep_output.trials if t.method == method and t.n == n]


def test_criterion_1_exact_formula_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    sigma_ref = math.sqrt(2 * math.log(1.25e5))
    assert abs(calibrate(1.0, 1e-5) - sigma_ref) < 1e-10
    assert abs(calibrate(0.1, 1e-5) - 10 * sigma_ref) < 1e-10
    for d_max in (1, 2, 4, 10, 37):
        assert abs(sensitivity_bound(d_max) - 2 * math.sqrt(d_max)) < 1e-10

    # de-bias identity on a real release
    base = RandomStream(1)
    w_star = gen_ground_truth(4, base.child("t"))
    data = gen_matrix(300, w_star, base.child("d"))
    part = partition_evenly(5, 2)
    sigma = calibrate(1.0, 0.5)
    release = dgm_release(data, part, sigma, base.child("r"))
    got, _ = solve_system(dgm_system(release, part.d_max, sigma, lam=1e-5))
    public = dgm_published(data, part, sigma, base.child("r"))
    x, y = public[:, :-1], public[:, -1]
    debiased = x.T @ x / 300 - 4 * part.d_max * sigma**2 * np.eye(4)
    want = np.linalg.solve(debiased + 1e-5 * np.eye(4), x.T @ y / 300)
    assert np.abs(got - want).max() < 1e-10

    # PSD Gram of a compressed release
    comp = rmgm_release(trial_sketch(data, part, 16, base.child("r2")), len(data), part, sigma, 16,
                        base.child("r2"))
    xc = comp[:, :-1]
    assert np.linalg.eigvalsh(xc.T @ xc).min() >= -1e-10

    # metric definitions
    a, b = rng.normal(size=7), rng.normal(size=7)
    assert abs(weight_distance(a, b) - math.sqrt(((a - b) ** 2).sum())) < 1e-10
    values = rng.uniform(0, 1, size=100)
    for beta in (0.05, 0.1, 0.2, 0.5):
        manual = sum(1 for v in values if v > beta) / 100
        assert abs(tail_probability(values, beta) - manual) < 1e-10

    elapsed = time.perf_counter() - start
    report(1, elapsed < 10, f"exact-formula checks in {elapsed:.2f}s (< 10s budget)")


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    for i in range(20):
        n = (50, 80, 120, 200)[i % 4]
        d = (2, 3, 4, 5)[(i // 4) % 4]
        m = 2 + (i % 2)
        if d + 1 < m:
            m = 2
        eps = (1.0, 0.7, 0.5)[i % 3]
        delta = (0.5, 0.9, 0.1)[(i // 3) % 3]
        k = (10, 20, 40)[i % 3]
        lam = 1e-5

        base = RandomStream(1000 + i)
        w_star = gen_ground_truth(d, base.child("t"))
        data = gen_matrix(n, w_star, base.child("d"))
        part = partition_evenly(d + 1, m)
        sigma = calibrate(eps, delta)

        release = dgm_release(data, part, sigma, base.child("dgm"))
        public = dgm_published(data, part, sigma, base.child("dgm"))
        got, _ = solve_system(dgm_system(release, part.d_max, sigma, lam=lam))
        want = dgm_oracle(public, part.d_max, sigma, lam)
        worst = max(worst, np.abs(got - want).max())

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sketch = trial_sketch(data, part, k, base.child("rmgm"))
            comp = rmgm_release(sketch, n, part, sigma, k, base.child("rmgm"))
        got, _ = solve_system(rmgm_system(normal_equations(comp), lam=lam))
        worst = max(worst, np.abs(got - rmgm_oracle(comp, lam)).max())

        got, _ = solve_system(ols_system(normal_equations(data), lam=lam))
        worst = max(worst, np.abs(got - ols_oracle(data[:, :-1], data[:, -1], lam)).max())

        got, _ = solve_system(ols_system(release, lam=lam))
        want = ols_oracle(public[:, :-1], public[:, -1], lam)
        worst = max(worst, np.abs(got - want).max())
    report(2, worst < 1e-10, f"20 instances, worst trainer-vs-oracle gap {worst:.2e}")


def test_criterion_3_rmgm_convergence(sweep):
    groups = {
        r.n: r for r in aggregate(sweep.trials, betas=(0.1,)) if r.method == "rmgm"
    }
    medians = [groups[n].median_distance for n in SWEEP_N_GRID]
    errors = [groups[n].std_error for n in SWEEP_N_GRID]
    inversions = [
        i
        for i in range(len(medians) - 1)
        if medians[i + 1] >= medians[i]
    ]
    tolerable = len(inversions) == 0 or (
        len(inversions) == 1
        and medians[inversions[0] + 1] - medians[inversions[0]]
        <= errors[inversions[0]] + errors[inversions[0] + 1]
    )
    means = {n: groups[n].mean_distance for n in SWEEP_N_GRID}
    halved = means[300_000] < 0.5 * means[10_000]
    detail = (
        f"medians {['%.4f' % m for m in medians]}, "
        f"mean@3e5 {means[300_000]:.4f} vs 0.5*mean@1e4 {0.5 * means[10_000]:.4f}"
    )
    report(3, tolerable and halved, detail)


def test_rmgm_rate_and_constant_match_the_prediction(sweep):
    """RMGM's distance falls as n^(-1/2), with the constant its noise
    level predicts.

    Prediction.  The features are U(-1, 1), so X'X ~ (n/3) I, and the
    labels are noiseless, y = X w*.  The release of [X | y] is
    Z = B D / sqrt(k) + R, k = round(sqrt(n) / sigma) rows, R i.i.d.
    N(0, s^2) with s = 2 sqrt(d_max) sigma and sigma = sqrt(2 ln(1.25 /
    delta)) / eps, the paper's formula (not ``calibrate``, which a wrong
    constant would move on both sides).  Given X, the k rows of the
    features Z_x are independent, about N(0, (c + s^2) I) with
    c = n / (3k), and z_y = Z_x beta + r: plain least squares on k rows,
    with beta = w* c / (c + s^2) and a residual of variance
    v = s^2 (1 + |w*|^2 c / (c + s^2)).  So

        E|w_hat - w*|^2 = v d / ((k - d - 1)(c + s^2)) + |w* - beta|^2.

    Its leading term is 3 d s^2 / n: the RMS distance is about
    sqrt(3d) s / sqrt(n), and the slope in n is -1/2.  Relative to that
    constant, the next order is a factor f^2 = (k / (k - d - 1)) /
    (1 + s^2 / c) (the k s^2 term and the finite k), and the neglected
    terms only add: v / s^2 is at most 1 + 1/d (|w*|^2 <= 1/d) and the
    shrinkage bias |w* - beta|^2 is at most (s^2 / (c + s^2))^2 / d.

    Bands.  The RMS ratio at each n lies in [f, sqrt(f^2 (1 + 1/d) +
    bias)], widened by four standard errors of the 200-seed mean square
    (each about 2%).  On this grid f moves within about 0.92-0.98 and the
    upper end stays below 1.1, so the fitted log-log slope of the RMS
    may leave -1/2 by ln(1.2)/ln(30) < 0.06, plus four standard errors
    of the slope (about 0.01 each): the band is -1/2 +- 0.1.  A release
    noised at 1/sqrt(2) of the calibrated level reads about 0.7; one
    without the 1/sqrt(k) scale reads 0.1-0.3, with a slope near -0.8.
    """
    d, d_max, eps, delta = 10, 2, 1.0, 1e-5
    sigma = math.sqrt(2 * math.log(1.25 / delta)) / eps
    s = 2 * math.sqrt(d_max) * sigma
    rms, checks = [], []
    for n in SWEEP_N_GRID:
        dist = np.array([t.distance for t in by_method(sweep, "rmgm", n)])
        assert dist.size == 200 and np.isfinite(dist).all()
        k = max(1, round(math.sqrt(n) / sigma))
        c = n / (3 * k)
        leading = 3 * d * s**2 / n
        f2 = k / (k - d - 1) / (1 + s**2 / c)
        bias = (s**2 / (c + s**2)) ** 2 / d / leading
        mean_square = float(np.mean(dist**2))
        se = float(np.std(dist**2, ddof=1)) / math.sqrt(dist.size) / mean_square / 2
        lo = math.sqrt(f2) * (1 - 4 * se)
        hi = math.sqrt(f2 * (1 + 1 / d) + bias) * (1 + 4 * se)
        ratio = math.sqrt(mean_square / leading)
        rms.append(math.sqrt(mean_square))
        checks.append((lo <= ratio <= hi, f"{ratio:.3f} in [{lo:.3f}, {hi:.3f}]"))
    slope = float(np.polyfit(np.log(SWEEP_N_GRID), np.log(rms), 1)[0])
    passed = abs(slope + 0.5) <= 0.1 and all(ok for ok, _ in checks)
    print(f"\n[rmgm rate] {'PASS' if passed else 'FAIL'}: slope {slope:.3f} (band -0.5 +- 0.1), "
          f"RMS / (sqrt(3d) s / sqrt(n)) {', '.join(text for _, text in checks)}")
    assert passed, f"slope {slope:.3f}, ratios {[text for _, text in checks]}"


def test_criterion_4_bgm_non_convergence(sweep):
    tails = {}
    medians = {}
    for n in SWEEP_N_GRID:
        distances = [t.distance for t in by_method(sweep, "bgm", n) if t.status == "ok"]
        tails[n] = tail_probability(distances, 0.1)
        medians[n] = float(np.median(distances))
    all_high = all(tails[n] >= 0.95 for n in SWEEP_N_GRID)
    lo, hi = medians[10_000], medians[300_000]
    flat = abs(hi - lo) / max(hi, lo) < 0.25
    report(
        4,
        all_high and flat,
        f"tails {[round(tails[n], 3) for n in SWEEP_N_GRID]}, "
        f"median drift {abs(hi - lo) / max(hi, lo):.3f}",
    )


def test_criterion_5_dgm_pathology(sweep):
    n = 100_000
    dgm_trials = by_method(sweep, "dgm", n)
    eigs = np.array([t.min_abs_eig for t in dgm_trials])
    ok = [t for t in dgm_trials if t.status == "ok"]
    rate = (eigs < 1e-2).mean()
    rho = spearmanr([t.min_abs_eig for t in ok], [t.distance for t in ok]).statistic
    med_dgm = np.median([t.distance for t in ok])
    med_rmgm = np.median(
        [t.distance for t in by_method(sweep, "rmgm", n) if t.status == "ok"]
    )
    passed = rate > 0 and rho < 0 and abs(rho) >= 0.3 and med_dgm > med_rmgm
    report(
        5,
        passed,
        f"pathology_rate {rate:.3f}, spearman {rho:.3f}, "
        f"median dgm {med_dgm:.3f} vs rmgm {med_rmgm:.3f}",
    )


def test_criterion_6_inner_product_preservation():
    k, dim = 4000, 10**4
    passes = 0
    for seed in range(50):
        rng = RandomStream(9000 + seed).generator()
        vectors = rng.standard_normal((dim, 12))
        vectors /= np.linalg.norm(vectors, axis=0, keepdims=True)
        mixing_seed = RandomStream(9000 + seed).child("mixing").seed64()
        projected = sketch_product(mixing_seed, vectors, k) / math.sqrt(k)
        deviation = np.abs(projected.T @ projected - vectors.T @ vectors).max()
        passes += deviation <= 0.2
    report(6, passes >= 48, f"{passes}/50 streams within the 0.2 deviation budget")


def _real_run(csv_path, seeds):
    cfg = build_config(
        {},
        dict(
            methods=("ols", "rmgm"),
            eps_grid=(1.0,),
            delta=1e-5,
            m=5,
            seeds=seeds,
            k_mode="grid",
            csv_path=csv_path,
            label_column="expenses",
            root_seed=777,
        ),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_real(cfg)


def test_criterion_7_real_data_spot_check():
    if not os.path.exists(REAL_INSURANCE):
        out = _real_run(FIXTURE, seeds=3)
        ols_mse = [t.test_mse for t in out.trials if t.method == "ols"]
        rows = best_k_rows(aggregate(out.trials, betas=(0.1,)))
        smoke = len(ols_mse) == 3 and all(m >= 0 for m in ols_mse) and len(rows) == 1
        report(
            7,
            smoke,
            "insurance dataset not fetched; fixture smoke test ran "
            f"(ols mse ~ {np.mean(ols_mse):.4f}); set MPDP_INSURANCE_CSV for the full check",
        )
        pytest.skip("real insurance dataset not available; fixture smoke test passed")

    out = _real_run(REAL_INSURANCE, seeds=20)
    ols_mse = float(np.mean([t.test_mse for t in out.trials if t.method == "ols"]))
    ((_, best_k, best_mse),) = best_k_rows(aggregate(out.trials, betas=(0.1,)))
    passed = 0.05 <= best_mse <= 0.12 and 0.004 <= ols_mse <= 0.02
    report(
        7,
        passed,
        f"ols mse {ols_mse:.4f} (band [0.004, 0.02]), "
        f"best-k={best_k} rmgm mse {best_mse:.4f} (band [0.05, 0.12])",
    )


def test_criterion_8_end_to_end_determinism(tmp_path):
    from mpdp.cli import main

    args = [
        "synthetic",
        "--n-grid", "2000",
        "--eps-grid", "1.0,0.3",
        "--seeds", "5",
        "--root-seed", "31415",
    ]
    for name in ("first", "second"):
        assert main(args + ["--out", str(tmp_path / name)]) == 0
    first = (tmp_path / "first" / "trials.csv").read_bytes()
    second = (tmp_path / "second" / "trials.csv").read_bytes()
    report(8, first == second, f"trials.csv identical across reruns ({len(first)} bytes)")
