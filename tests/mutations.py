"""Mutation checks: deliberate bugs that the test suite must catch.

Each entry is (file under src/mpdp, exact old text, new text, expected
tests, note).  The old text must occur exactly once in its file;
tests/test_mutations.py checks that in tier-1, so a refactor that moves
the code must update this list.

Run as a script (pytest does not collect it):

    python tests/mutations.py            # every mutation
    python tests/mutations.py 2 4        # mutations 2 and 4 (1-based)

For each mutation it copies src/ to a temporary directory, applies the
mutation there, runs only the expected tests against the copy and prints
"caught" (at least one of them failed) or "missed"; it exits 1 unless
every mutation was caught.  It never edits src/ in place.  The expected
tests pass on the unmutated code: they are part of tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Every mutation below but the seventh, the twelfth, the fifteenth and
# the twenty-first to the twenty-eighth also changes the golden digests
# (tests/test_golden.py).  (The seventh shows only where the DGM root
# pivots on the label before a feature, and no golden run does; the
# twenty-third and twenty-fourth only where a run has more than one n;
# the twenty-fifth only on an entry that is NaN; the last two only where
# a caller pushes past n or asks too early, which no run does.)  They
# are left out of the expected tests: a change that re-pins them would
# hide the mutation, so each entry names the tests that check the
# behaviour itself.  Where those are only pinned constants (reference
# values), the note says so.

MUTATIONS = (
    (
        "rmgm.py",
        'np.divide(product[:k], math.sqrt(k), order="C")',
        'np.divide(product[:k], 1.0, order="C")',
        (
            "tests/test_rmgm.py::TestRelease",
            "tests/test_rmgm.py::TestSharedSketch",
            "tests/test_rmgm.py::TestSensitivity",
            "tests/test_acceptance.py::test_rmgm_rate_and_constant_match_the_prediction",
            "tests/test_acceptance.py::test_real_protocol_mse_against_the_noise_floor",
        ),
        "RMGM release without the 1/sqrt(k) scale",
    ),
    (
        "dgm.py",
        "dof = stats.n - r",
        "dof = stats.n",
        ("tests/test_dgm.py::TestSampler",),
        "Wishart degrees of freedom n in place of n - r",
    ),
    (
        "dgm.py",
        "bias = 4.0 * d_max",
        "bias = 2.0 * d_max",
        (
            "tests/test_dgm.py::TestTrain::test_matches_brute_force_oracle",
            "tests/test_acceptance.py::test_criterion_1_exact_formula_suite",
            "tests/test_acceptance.py::test_criterion_2_oracle_equivalence",
            "tests/test_dgm.py::TestSmallEigenvalueThreshold",
        ),
        "DGM de-bias shift halved",
    ),
    (
        "dp_core.py",
        "return 2.0 * math.sqrt(d_max)",
        "return math.sqrt(d_max)",
        (
            "tests/test_dgm.py::TestSensitivity",
            "tests/test_rmgm.py::TestSensitivity",
            "tests/test_dgm.py::TestRelease::test_noise_variance_at_scale",
            "tests/test_acceptance.py::test_real_protocol_mse_against_the_noise_floor",
            "tests/test_dgm.py::TestSmallEigenvalueThreshold",
        ),
        "sensitivity_bound halved",
    ),
    (
        "dp_core.py",
        "math.sqrt(2.0 * math.log(1.25 / delta))",
        "math.sqrt(math.log(1.25 / delta))",
        (
            "tests/test_dp_core.py::TestCalibrate",
            "tests/test_rmgm.py::TestChooseK::test_synthetic_scaling",
            "tests/test_acceptance.py::test_criterion_1_exact_formula_suite",
            "tests/test_acceptance.py::test_rmgm_rate_and_constant_match_the_prediction",
            "tests/test_acceptance.py::test_real_protocol_mse_against_the_noise_floor",
            "tests/test_dgm.py::TestSmallEigenvalueThreshold",
        ),
        "calibrate without the 2 under the root (noise 1/sqrt(2) of what "
        "(epsilon, delta) needs)",
    ),
    (
        "dgm.py",
        "gram += gram_product(std * lower.T)",
        "gram += gram_product(np.sqrt(std) * lower.T)",
        ("tests/test_dgm.py::TestSampler", "tests/test_dgm.py::TestSmallEigenvalueThreshold"),
        "Bartlett Wishart part scaled by s, not s^2",
    ),
    (
        "linalg.py",
        "gram[:-1, -1] = gram[-1, :-1] = x.T @ y",
        "gram[:-1, -1], gram[-1, :-1] = x.T @ y, 0.0",
        ("tests/test_dgm.py::TestSampler",),
        "the data Gram's label row left at 0 (X'y kept in the label column, "
        "which OLS and RMGM read): only the DGM root T sees it",
    ),
    (
        "dp_core.py",
        "for j in range(1, n_gens + 1)",
        "for j in range(n_gens)",
        (
            "tests/test_dp_core.py::TestPartyNoiseColumns",
            "tests/test_rmgm.py::TestSharedSketch",
        ),
        "party j drawing its noise from child(j - 1)",
    ),
    (
        "data_model.py",
        "lo = train.min(axis=0)\n    span = train.max(axis=0) - lo",
        "lo = data.min(axis=0)\n    span = data.max(axis=0) - lo",
        ("tests/test_data_model.py::TestNormalize::test_scaling_uses_the_training_rows_alone",),
        "min-max statistics over all rows, test rows leaking into the scaling",
    ),
    (
        "evaluation.py",
        "np.mean(residual**2)",
        "np.mean(np.abs(residual))",
        ("tests/test_evaluation.py::TestMse",),
        "test MSE as the mean absolute residual",
    ),
    (
        "dp_core.py",
        "if not 0.0 <= sigma < math.inf:",
        "if sigma < 0.0:",
        ("tests/test_dp_core.py::TestNoiseStd::test_invalid_sigma_rejected_by_every_release",),
        "noise_std letting a NaN or infinite sigma through (a NaN sigma releases "
        "the data unnoised)",
    ),
    (
        "evaluation.py",
        "isinstance(v, float)",
        "type(v) is float",
        ("tests/test_evaluation.py::TestCsvRendering::test_csv_line_bytes_are_pinned",),
        "numpy's float64 written by str, not with 17 significant digits; no run's "
        "CSV holds a float64 today, so the golden digests do not move",
    ),
    (
        "runner.py",
        '    base = RandomStream(cfg.root_seed).child("synthetic", seed)',
        '    _synthetic_trial.__dict__.setdefault("calls", []).append(seed)\n'
        '    base = RandomStream(cfg.root_seed).child("synthetic", len(_synthetic_trial.calls))',
        ("tests/test_cli.py::TestTaskIsOneCall::test_synthetic_task_alone",),
        "a synthetic task's stream indexed by a call count that every task in the "
        "process shares, not by its seed",
    ),
    (
        "runner.py",
        '    train, test = split_normalized(data, base.child("split"))',
        '    base.child("split").generator().shuffle(data)\n'
        '    train, test = split_normalized(data, base.child("split"))',
        ("tests/test_cli.py::TestTaskIsOneCall::test_real_task_alone",),
        "a real task shuffling the CSV rows that every task shares in place before "
        "its split, so a seed's split depends on the seeds run before it",
    ),
    (
        "kernels.py",
        "            self._transposed = None",
        "            pass",
        ("tests/test_kernels.py::TestWorkingMemory::test_only_the_result_outlives_the_last_push",),
        "a sketch keeping its (c, chunk) transpose buffer after the push that completes "
        "the n rows, resident through the trial's releases and solve; no bit moves",
    ),
    (
        "runner.py",
        'seed, "test_mse", test)',
        'seed, "test_mse", train)',
        ("tests/test_acceptance.py::test_real_protocol_mse_against_the_noise_floor",),
        "a real trial scored on its training rows, not the held-out ones",
    ),
    (
        "data_model.py",
        "for values in (train, test):",
        "for values in (train,):",
        (
            "tests/test_data_model.py::TestNormalize::test_affine_map_to_unit_interval",
            "tests/test_acceptance.py::test_real_protocol_mse_against_the_noise_floor",
        ),
        "the held-out rows left unscaled (then clamped into [0, 1])",
    ),
    (
        "data_model.py",
        "np.subtract(values, lo, out=values)",
        "np.subtract(values, 0.0, out=values)",
        (
            "tests/test_data_model.py::TestNormalize::test_scaling_uses_the_training_rows_alone",
            "tests/test_acceptance.py::test_real_protocol_mse_against_the_noise_floor",
        ),
        "min-max scaling that divides by the span without first subtracting the minimum",
    ),
    (
        "runner.py",
        "partition_evenly(data.shape[1], cfg.m)",
        "partition_evenly(data.shape[1], 2)",
        ("tests/test_acceptance.py::test_real_protocol_mse_against_the_noise_floor",),
        "a real trial splitting the columns between 2 parties whatever m is, so each "
        "release is noised for wider blocks than the run reports",
    ),
    (
        "data_model.py",
        "test = data[np.sort(perm[n_train:])]",
        "test = data[np.sort(perm[: n - n_train])]",
        (
            "tests/test_data_model.py::TestSplit::test_deterministic_and_disjoint",
            "tests/test_acceptance.py::test_real_protocol_mse_against_the_noise_floor",
        ),
        "held-out rows drawn from the training rows",
    ),
    (
        "data_model.py",
        "values.shape != (lines, len(names))",
        "values.shape[1] != len(names)",
        ("tests/test_data_model.py::TestPlainReader",),
        "numpy's reader kept at any row count, so an empty line that it skips and the csv "
        "module reads as a 0-cell record is lost",
    ),
    (
        "data_model.py",
        "limit, lines = csv.field_size_limit(), 0",
        "limit, lines = 1 << 62, 0",
        ("tests/test_data_model.py::TestPlainReader::"
         "test_numpy_reader_matches_the_csv_module_reader",),
        "numpy's reader without its long-line check, so it takes a cell "
        "longer than csv.field_size_limit(), which the csv-module reader rejects",
    ),
    (
        "kernels.py",
        "_matvecs(tile[: acc.shape[1] - t0, :cols], transposed[:, :cols],",
        "_matvecs(tile[: acc.shape[1] - t0], transposed,",
        (
            "tests/test_kernels.py::TestSmallerN::test_each_n_is_its_sketch_alone",
            "tests/test_cli.py::TestTaskIsOneCall::test_synthetic_task_alone",
        ),
        "a smaller n's sketch taking the whole product of its last chunk, so the "
        "columns past n, which are not its data, are mixed into its releases",
    ),
    (
        "linalg.py",
        "part = gram if n == r1 else self._block_gram(block[: n - r0])",
        "part = gram",
        (
            "tests/test_linalg.py::TestNormalEquations::test_one_pass_gives_every_smaller_n_alone",
            "tests/test_cli.py::TestTaskIsOneCall::test_synthetic_task_alone",
        ),
        "a smaller n's normal equations snapshot taken after its whole block, so the "
        "rows past n, which are not its data, are summed into its Gram",
    ),
    (
        "data_model.py",
        "if chunk.size and not (chunk.min() >= -1.0 and chunk.max() <= 1.0):",
        "if chunk.size and (chunk.min() < -1.0 or chunk.max() > 1.0):",
        ("tests/test_data_model.py::TestBoundsCheck::test_lone_offender_at_a_chunk_edge",),
        "the bounds check's fast path letting a NaN entry through: NaN fails every "
        "comparison, so it is neither below -1 nor above 1",
    ),
    (
        "synthetic.py",
        "        del draws  # not held while the chunk is out\n",
        "",
        ("tests/test_trial_memory.py::TestTrialMemory::"
         "test_gen_chunks_holds_only_its_buffer_while_a_chunk_is_out",),
        "the generator holding its 1.3 MiB feature draw across each yield, beside "
        "every consumer's working memory; no bit moves",
    ),
    (
        "kernels.py",
        "if self._i0 < n:",
        "if False:",
        ("tests/test_kernels.py::TestSmallerN::test_an_n_is_ready_once_its_rows_are_in",),
        "a sketch handing out an n's result before its n rows are in: the largest n's "
        "half-summed accumulator",
    ),
    (
        "linalg.py",
        "if self._pushed + chunk.shape[0] > self.n:",
        "if False:",
        ("tests/test_linalg.py::TestNormalEquations::test_rows_past_n_raise",),
        "normal equations summing rows pushed past the largest n, which are no n's data",
    ),
)


def apply(src_dir: str, mutation) -> None:
    """Apply ``mutation`` to the package under ``src_dir`` (a copy)."""
    name, old, new, _, _ = mutation
    path = os.path.join(src_dir, "mpdp", name)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(old) != 1:
        raise SystemExit(f"{name}: the old text {old!r} occurs {text.count(old)} times, not once")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))


def run(index: int, mutation) -> bool:
    """Apply one mutation to a fresh copy of src/ and run its expected
    tests there; True when they fail (the mutation is caught)."""
    name, _, _, tests, note = mutation
    with tempfile.TemporaryDirectory() as tmp:
        src_dir = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(REPO, "src"), src_dir,
                        ignore=shutil.ignore_patterns("__pycache__"))
        apply(src_dir, mutation)
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
            cwd=REPO, env=env, capture_output=True, text=True,
        )
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else proc.stderr
    # pytest exits 1 when a test failed; any other non-zero exit (a
    # collection or usage error) says nothing about the mutation
    status = {0: "missed", 1: "caught"}.get(proc.returncode, f"error (exit {proc.returncode})")
    print(f"{index}. {status}: {name}: {note}\n   {summary}", flush=True)
    return status == "caught"


def main(argv: list[str]) -> int:
    picks = [int(a) for a in argv] or range(1, len(MUTATIONS) + 1)
    caught = [run(i, MUTATIONS[i - 1]) for i in picks]
    return 0 if all(caught) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
