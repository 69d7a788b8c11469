#!/usr/bin/env python3
"""Sweep benchmark for mpdp: whole sweeps through ``mpdp.cli.main``.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each repetition runs one sweep
in a fresh interpreter (``perfbench/child.py``) with the BLAS thread
pools pinned to one thread, so the only parallelism is ``--workers``.
After one untimed warm-up sweep, repetitions continue until ``--seconds``
would be exceeded (at least three); the end-to-end metrics are their
medians, and the upper quartile for peak RSS.  The time metrics are scaled by a fixed calibration loop, timed
in the same process right before and after the sweep, which takes out
most of the host's own changes in speed.  With ``--trace 1`` a separate
traced repetition follows and the per-layer metrics are reported
instead.  Correctness gates run on every invocation; any violation
makes the result ``correct: false`` and the exit code 1.
The last line of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, config_text, expected_keys, ols_tolerance, write_real_csv

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_REPS = 3
# the calibration-loop time the scaled metrics refer to: a scaled metric
# reads as measured when the loop took this long next to it
CAL_REF_S = 0.1
TOTAL_LIMIT_S = 170.0
KERNEL_REL_TOL = 1e-9
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("trials_per_s_norm", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# per-layer metric -> unit; values come from Bench.layers
PER_LAYER_UNITS = {
    "kernels.sketch_product.calls": "count",
    "kernels.sketch_product.self_s": "s",
    "kernels.sketch_product.sign_entries": "count",
    "kernels.sketch_product.madds": "count",
    "kernels.sketch_product.madd_per_s": "1/s",
    "kernels.sketch_product.bytes_computed": "B",
    "dp_core.gaussian_noise.calls": "count",
    "dp_core.gaussian_noise.self_s": "s",
    "dp_core.gaussian_noise.entries": "count",
    "streams.RandomStream.generator.calls": "count",
    "streams.RandomStream.generator.self_s": "s",
    "linalg.solve_symmetric.calls": "count",
    "linalg.solve_symmetric.self_s": "s",
    "linalg.solve_symmetric.singular": "count",
    "synthetic.gen_dataset.calls": "count",
    "synthetic.gen_dataset.rows": "count",
    "ingest.self_s": "s",
    "data_model.DataMatrix.__post_init__.self_s": "s",
    "data_model.validate_bounds.calls": "count",
    "data_model.validate_bounds.self_s": "s",
    "data_model.validate_bounds.entries_scanned": "count",
    "data_model.validate_bounds.useful_ratio": "ratio",
    "dgm.dgm_release.self_s": "s",
    "dgm.dgm_train.self_s": "s",
    "rmgm.rmgm_release.self_s": "s",
    "rmgm.rmgm_train.self_s": "s",
    "evaluation.score.self_s": "s",
    "evaluation.aggregate.self_s": "s",
    "evaluation.trials_to_csv.self_s": "s",
    "runner.write_outputs.self_s": "s",
    "runner.write_outputs.bytes_written": "B",
    "runner.task.calls": "count",
    "runner.task.self_s": "s",
    "runner.busy_frac": "ratio",
    "runner.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# layers whose functions run on only one protocol are reported as one
# sum, so every per-layer time is measured on every workload
INGEST = (
    "synthetic.gen_ground_truth",
    "synthetic.gen_dataset",
    "data_model.load_csv",
    "data_model.split_train_test",
    "data_model.normalize_minmax",
)
SCORE = ("evaluation.weight_distance", "evaluation.test_mse")
TASKS = ("runner._synthetic_trial", "runner._real_trial")


class Bench:
    def __init__(self, workload, seed: int, seconds: int, trace: bool):
        self.w = workload
        self.expected = expected_keys(workload)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = os.path.join(ROOT, ".perfbench_work", workload.name)
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ, **THREAD_PINS, TMPDIR=self.dir)
        self.steps = 0
        self.csv_path: str | None = None
        self.reference: str | None = None  # trials.csv sha256 every sweep must match

    # -- children ---------------------------------------------------------

    def child(self, job: dict) -> dict:
        """Run one child step; returns its result dict, or {"error": ...}."""
        self.steps += 1
        tag = f"{self.steps:03d}-{job['mode']}"
        job = dict(job, src=SRC, result=os.path.join(self.dir, f"{tag}.result.json"))
        job_path = os.path.join(self.dir, f"{tag}.job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        timeout = max(5.0, TOTAL_LIMIT_S - (time.monotonic() - self.started))
        with open(os.path.join(self.dir, f"{tag}.log"), "w", encoding="utf-8") as log:
            argv = [sys.executable, os.path.join(HERE, "child.py"), job_path]
            try:
                proc = subprocess.run(
                    argv + [repr(time.monotonic())],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    env=self.env,
                    cwd=self.dir,
                    timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                return {"error": f"{tag} timed out after {timeout:.0f} s"}
        if proc.returncode != 0 or not os.path.exists(job["result"]):
            return {"error": f"{tag} exited {proc.returncode}; see {log.name}"}
        with open(job["result"], encoding="utf-8") as fh:
            return json.load(fh)

    def sweep(self, name: str, trace: bool = False, calibrate: bool = False,
              **override) -> dict:
        """One cli.main sweep of the workload (or of a shortened config)."""
        out_dir = os.path.join(self.dir, name)
        cfg_path = os.path.join(self.dir, f"{name}.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(config_text(self.w, out_dir, self.csv_path, **override))
        argv = [self.w.protocol, "--config", cfg_path, "--root-seed", str(self.seed)]
        job = {
            "mode": "run",
            "argv": argv,
            "trace": trace,
            "calibrate": calibrate,
            "workers": override.get("workers", self.w.workers),
        }
        if trace:
            job["spans"] = os.path.join(self.dir, "spans.jsonl")
        res = self.child(job)
        trials = os.path.join(out_dir, "trials.csv")
        if "error" not in res and res["rc"] == 0 and os.path.exists(trials):
            with open(trials, "rb") as fh:
                res["csv"] = fh.read()
            res["sha256"] = hashlib.sha256(res["csv"]).hexdigest()
        return res

    # -- gates --------------------------------------------------------------

    def gate(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        print(f"gate {name}: {'ok' if ok else 'FAILED'} ({detail})")
        if not ok:
            self.failed += 1
            self.problems.append(f"gate {name}: {detail}")

    def kernel_gate(self) -> None:
        res = self.child({"mode": "kernel", "shape": list(self.w.kernel_shape), "seed": self.seed})
        k, n, c = self.w.kernel_shape
        if "error" in res:
            self.gate("kernel_reference", False, res["error"])
            return
        ok = res["shape_ok"] and res["rel_err"] <= KERNEL_REL_TOL
        self.gate("kernel_reference", ok, f"k={k} n={n} c={c} rel_err={res['rel_err']:.3g}")

    def worker_gate(self) -> None:
        """A short config must give the same trials.csv bytes at 1 and 2 workers."""
        if self.w.protocol == "synthetic":
            short = dict(n_grid=(2000, 70_000), eps_grid=(1.0, 0.1), seeds=2)
        else:
            short = dict(k_grid=(100, 600), seeds=2)
        one = self.sweep("invariance_w1", workers=1, **short)
        two = self.sweep("invariance_w2", workers=2, **short)
        shas = (one.get("sha256"), two.get("sha256"))
        ok = None not in shas and shas[0] == shas[1]
        detail = "sha256 " + " vs ".join(str(s)[:16] for s in shas)
        self.gate("worker_invariance", ok, detail)

    def check_rows(self, res: dict) -> int:
        """Number of expected trials this sweep failed (all, if it did not finish)."""
        expected = self.expected
        if "csv" not in res:
            return len(expected)
        lines = res["csv"].decode("utf-8").splitlines()
        header = lines[0].split(",")
        seen: set[tuple] = set()
        bad = 0
        tol = ols_tolerance(self.w)
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            key = (
                row["method"],
                int(row["n"]),
                float(row["epsilon"]) if row["epsilon"] else None,
                int(row["k"]) if row["k"] else None,
                int(row["seed"]),
            )
            if key not in expected or key in seen:
                bad += 1
                continue
            seen.add(key)
            if row["status"] == "singular" and row["method"] != "ols":
                continue  # a recorded outcome, not a failure
            metric = row["distance"] if self.w.protocol == "synthetic" else row["test_mse"]
            value = float(metric) if metric else math.nan
            if row["status"] != "ok" or not math.isfinite(value):
                bad += 1
            elif row["method"] == "ols" and self.w.protocol == "synthetic" and value > tol:
                bad += 1
        return min(len(expected), bad + len(expected - seen))

    def account(self, label: str, res: dict, reference_sha: str | None) -> None:
        expected = len(self.expected)
        failed = self.check_rows(res)
        if "error" in res:
            self.problems.append(f"{label}: {res['error']}")
        elif res["rc"] != 0:
            self.problems.append(f"{label}: cli.main returned {res['rc']}")
        elif failed:
            self.problems.append(f"{label}: {failed} of {expected} trials failed the row checks")
        if reference_sha is not None and res.get("sha256") not in (None, reference_sha):
            self.problems.append(f"{label}: trials.csv sha256 differs from the first repetition")
            failed = expected
        self.attempted += expected
        self.failed += failed

    # -- the run ------------------------------------------------------------

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        if self.w.protocol == "real":
            self.csv_path = os.path.join(self.dir, "input.csv")
            write_real_csv(self.csv_path, self.seed)

    def run(self) -> dict:
        self.prepare()
        probe = self.child({"mode": "probe"})
        if "error" in probe:
            raise SystemExit(f"error: cannot import mpdp from {SRC}: {probe['error']}")
        print(
            "environment: "
            + " ".join(f"{k}={v}" for k, v in probe.items() if k != "thread_env")
            + " "
            + " ".join(f"{k}={v}" for k, v in probe["thread_env"].items())
        )
        self.kernel_gate()
        self.worker_gate()

        # an untimed warm-up sweep: the first sweep after start-up runs
        # about 10% slow; its output is still checked
        warm = self.sweep("sweep")
        self.account("warm-up repetition", warm, None)
        self.reference = warm.get("sha256")
        reps = []
        begin = time.monotonic()
        while True:
            t0 = time.monotonic()
            res = self.sweep("sweep", calibrate=True)
            took = time.monotonic() - t0
            self.account(f"repetition {len(reps) + 1}", res, self.reference)
            if "wall_s" in res and "csv" in res:
                self.reference = self.reference or res["sha256"]
                rows = res["csv"].count(b"\n") - 1
                rep = {
                    "trials_per_s_norm": rows / res["wall_s"] * res["cal_s"] / CAL_REF_S,
                    "setup_s": res["setup_s"] * CAL_REF_S / res["cal_setup_s"],
                    "peak_rss_mb": res["maxrss_kb"] / 1024.0,
                    "trials_per_s": rows / res["wall_s"],
                    "raw_setup_s": res["setup_s"],
                    "wall_s": res["wall_s"],
                    "cal_s": res["cal_s"],
                }
                reps.append(rep)
                print(
                    f"repetition {len(reps)}: rows={rows} "
                    + " ".join(f"{k}={v:.4f}" for k, v in rep.items())
                    + f" sha256={res['sha256'][:16]}"
                )
            elapsed = time.monotonic() - begin
            total = time.monotonic() - self.started
            if "error" in res and "timed out" in res["error"]:
                break
            if elapsed + took > self.seconds and (len(reps) >= MIN_REPS or "csv" not in res):
                break
            if total + took > TOTAL_LIMIT_S - 10:
                break
        if not reps:
            raise SystemExit("error: no repetition finished; " + "; ".join(self.problems))

        e2e = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
        # with two workers the peak depends on how the largest tasks overlap
        # in time and falls on one of a few levels; the median jumps between
        # the two common ones, the upper quartile stays on the higher
        e2e["peak_rss_mb"] = statistics.quantiles([r["peak_rss_mb"] for r in reps], n=4)[2]
        print(f"medians of {len(reps)} repetitions (tracing off), unscaled: "
              + " ".join(f"{k}={e2e[k]:.4f}" for k in ("trials_per_s", "raw_setup_s", "cal_s")))
        print("end-to-end (peak_rss_mb the upper quartile, the others medians):")
        for key, unit in END_TO_END:
            print(f"  {key:<18} {e2e[key]:>14.4f} {unit}")

        if not self.trace:
            return {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
        res = self.sweep("traced", trace=True, calibrate=True)
        self.account("traced repetition", res, self.reference)
        if "wall_s" not in res:
            raise SystemExit("error: traced repetition failed; " + "; ".join(self.problems))
        untraced_wall = statistics.median(r["wall_s"] for r in reps)
        return self.layers(res, untraced_wall)

    def layers(self, res: dict, untraced_wall: float) -> dict:
        agg: dict[str, dict] = {}
        top = 0.0
        self_total = 0.0
        with open(os.path.join(self.dir, "spans.jsonl"), encoding="utf-8") as fh:
            for line in fh:
                s = json.loads(line)
                a = agg.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
                a["calls"] += 1
                a["self_s"] += s["self"]
                a["incl_s"] += s["end"] - s["start"]
                for key, value in (s["counts"] or {}).items():
                    a[key] = a.get(key, 0) + value
                if s["error"]:
                    a[s["error"]] = a.get(s["error"], 0) + 1
                self_total += s["self"]
                if s["parent"] is None:
                    top += s["end"] - s["start"]
        wall = res["wall_s"]
        capacity = wall * self.w.workers
        unattributed = capacity - top
        # the accounting identity: self times plus unattributed time
        # must cover the traced wall time of every worker thread
        err = abs(self_total + unattributed - capacity) / capacity
        self.gate("trace_accounting", err <= 0.01, f"relative error {err:.2e}")
        same = res.get("sha256") == self.reference
        print(f"traced trials.csv sha256 {'matches' if same else 'DIFFERS FROM'} the untraced runs")
        for name in res.get("missing_targets", []):
            print(f"trace: target {name} not found in the package")

        def get(name, key="self_s"):
            return agg.get(name, {}).get(key, 0)

        sketch = "kernels.sketch_product"
        bounds = "data_model.validate_bounds"
        values = {}
        for metric in PER_LAYER_UNITS:
            name, _, key = metric.rpartition(".")
            values[metric] = get(name, key)
        values["kernels.sketch_product.madd_per_s"] = (
            get(sketch, "madds") / get(sketch) if get(sketch) else 0.0
        )
        values["linalg.solve_symmetric.singular"] = get("linalg.solve_symmetric", "SingularSystemError")
        values[f"{bounds}.useful_ratio"] = (
            get(bounds, "distinct") / get(bounds, "calls") if get(bounds, "calls") else 0.0
        )
        values["ingest.self_s"] = sum(get(n) for n in INGEST)
        values["evaluation.score.self_s"] = sum(get(n) for n in SCORE)
        values["runner.task.calls"] = sum(get(n, "calls") for n in TASKS)
        values["runner.task.self_s"] = sum(get(n) for n in TASKS)
        values["runner.busy_frac"] = top / capacity
        values["runner.unattributed_s"] = unattributed
        values["trace.wall_s"] = wall
        values["trace.overhead_s"] = wall - untraced_wall

        print(f"traced repetition: wall_s={wall:.4f} workers={self.w.workers} "
              f"untraced median wall_s={untraced_wall:.4f}")
        print(f"  {'span':<40} {'calls':>8} {'self_s':>10} {'share':>7} {'incl_s':>10}  counts")
        for name, a in sorted(agg.items(), key=lambda kv: -kv[1]["self_s"]):
            extra = " ".join(
                f"{k}={v}" for k, v in a.items() if k not in ("calls", "self_s", "incl_s")
            )
            print(f"  {name:<40} {a['calls']:>8} {a['self_s']:>10.4f} "
                  f"{a['self_s'] / capacity:>7.1%} {a['incl_s']:>10.4f}  {extra}")
        print(f"  {'(unattributed)':<40} {'':>8} {unattributed:>10.4f} "
              f"{unattributed / capacity:>7.1%}")
        print("per-layer metrics:")
        for metric, unit in PER_LAYER_UNITS.items():
            print(f"  {metric:<46} {values[metric]:>16.6g} {unit}")
        return {m: {"value": values[m], "unit": u} for m, u in PER_LAYER_UNITS.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "mpdp", "__init__.py")):
        print(f"error: no mpdp package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    metrics = bench.run()
    for problem in bench.problems:
        print(f"FAILED: {problem}")
    frac = bench.failed / bench.attempted
    print(f"failed_frac {frac:.4f} ({bench.failed} of {bench.attempted} trials and gates)")
    result = {
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
