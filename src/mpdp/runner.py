"""Experiment orchestration: wiring generation, release, training and
metrics into the synthetic and real-data protocols.

A task is one seed: a synthetic seed over the whole n grid, whose one
generated pass at the largest n serves every n, or a real-data seed.  It
is one call of a module-level function whose record depends only on
(config, task): its random state is derived from the root seed as
child(protocol, seed) and split further into named sub-streams, so tasks
can run on any number of workers in any order and still produce
identical output files.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig
from .data_model import (
    BoundsCheck,
    DataFormatError,
    PartyPartition,
    feed,
    load_csv,
    partition_evenly,
    split_normalized,
)
from .dgm import dgm_system, sample_dgm_gram
from .dp_core import calibrate
from .evaluation import (
    AggregateReport,
    TrialReport,
    aggregate,
    aggregates_to_csv,
    csv_lines,
    test_mse,
    to_csv,
    trial_order,
    trials_to_csv,
    weight_distance,
)
from .kernels import SketchSum, chunk_views
from .linalg import (
    NormalEquationSum,
    SingularSystemError,
    gram_root,
    normal_equations,
    ols_system,
    solve_symmetric,
)
from .rmgm import choose_k, rmgm_release, rmgm_system
from .streams import BIT_GENERATOR, RandomStream
from .synthetic import column_names, gen_chunks, gen_ground_truth

__all__ = [
    "OUTPUT_FILES", "RunOutput", "run_command", "run_synthetic", "run_real", "export_synthetic",
    "write_outputs",
]

# Bumped by any change that alters trials.csv bytes on purpose, together
# with the digests in tests/test_golden.py.
NUMERICS_VERSION = 8

# Recorded in run_meta ("unset" when absent) so a run states its BLAS
# setup.  Up to d = 144 trials.csv does not depend on them.  Under one and
# two OpenBLAS threads, tests/test_linalg.py compares the solve at d = 10,
# 40, 96 and 200 (an LU solve changed bits at 120 and 200), and
# tests/test_cli.py and tests/test_kernels.py compare trials.csv at d = 120
# and 200, wider than one 64-column Gram panel.  From d = 145 on, the
# solve's eigendecomposition (LAPACK) may round differently.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The files each command writes under its output directory, in writing order.
OUTPUT_FILES = {
    "synthetic": ("trials.csv", "aggregates.csv", "timings.csv", "run_meta"),
    "real": ("trials.csv", "aggregates.csv", "timings.csv", "best_k.csv", "run_meta"),
    "export": ("synthetic.csv", "synthetic_wstar.csv"),
}


@dataclass(frozen=True)
class RunOutput:
    trials: tuple[TrialReport, ...]
    timings: tuple[tuple[int, int, float], ...]  # (n, seed, seconds) per task, in task order
    meta: dict


def _sweep(cfg: RunConfig, protocol: str, trial, tasks, started: float) -> RunOutput:
    """Run ``trial(cfg, *task)`` for every task, one seed each, on
    ``cfg.workers`` threads; its records (n, seed, reports, seconds), n the
    largest n the task generated or its training rows, give the run's
    trials in ``trial_order`` and its timings in task order."""
    if cfg.workers <= 1:
        records = [trial(cfg, *task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(trial, cfg, *task) for task in tasks]
            try:
                records = [future.result() for future in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)  # no pending task starts
                raise
    trials = sorted((t for _, _, reports, _ in records for t in reports), key=trial_order)
    timings = tuple((n, seed, seconds) for n, seed, _, seconds in records)
    return RunOutput(tuple(trials), timings, _base_meta(cfg, protocol, started))


def _trial_methods(cfg: RunConfig, base: RandomStream, chunks, ns, partition: PartyPartition,
                   seed: int, metric: str, reference: np.ndarray) -> list[TrialReport]:
    """Run every configured method once at each n of ``ns`` against the
    first n of the max(ns) rows that ``chunks`` yields in ``chunk_views``
    chunks, in one pass: each chunk goes to the bounds check, the normal
    equations and the RMGM sketch, one each for the whole grid, which take
    each smaller n's sums out of the pass; only the releases and solves
    run after it.  So each n's trials are those of a pass over its own n
    rows, bit for bit.  OLS trains on the data's normal equations,
    and each epsilon's DGM release Gram is sampled from them
    (``sample_dgm_gram``), never materialised.
    Every method's system is built by the one function of its rule
    (``ols_system`` for ols and bgm, ``dgm_system``, ``rmgm_system``), and
    each n's are solved as one stack (``solve_symmetric``); under
    ``cfg.strict`` the first singular one in row order raises.
    ``metric`` is the metric field, ``distance`` to the ground truth or
    ``test_mse`` on the held-out rows (``reference``).  All methods see
    the same data; dgm and bgm share one release per epsilon, and every
    rmgm release mixes with the same B, so their comparisons are paired.
    """
    d = partition.total_columns - 1
    sigmas = [calibrate(eps, cfg.delta) for eps in cfg.eps_grid]
    dgm = "dgm" in cfg.methods or "bgm" in cfg.methods
    sums = NormalEquationSum(d + 1, *ns) if dgm or "ols" in cfg.methods else None
    ks = {n: [choose_k(n, sigma, d, partition.d_max, cfg.k_mode, cfg.k_grid) for sigma in sigmas]
          for n in ns}
    # one shared B per seed: every (n, eps, k) release is a prefix of n's sketch
    mixer = (SketchSum(base.child("mixing").seed64(), d + 1,
                       {n: max(map(max, ks[n])) for n in ns})
             if "rmgm" in cfg.methods else None)
    feed(chunks, *filter(None, (BoundsCheck(partition, d + 1), sums, mixer)))

    score = weight_distance if metric == "distance" else test_mse
    reports = []
    for n in ns:
        rows = []  # (method, epsilon, k, system)
        stats = sums.result(n) if sums is not None else None
        root = gram_root(stats.gram, stats.n) if dgm else None
        if "ols" in cfg.methods:
            rows.append(("ols", None, None, ols_system(stats, lam=cfg.lam)))
        for eps_index, (eps, sigma) in enumerate(zip(cfg.eps_grid, sigmas)):
            if dgm:
                release = sample_dgm_gram(stats, root, partition, sigma,
                                          base.child("dgm", eps_index))
                if "dgm" in cfg.methods:
                    rows.append(("dgm", eps, None,
                                 dgm_system(release, partition.d_max, sigma, lam=cfg.lam)))
                if "bgm" in cfg.methods:
                    rows.append(("bgm", eps, None, ols_system(release, lam=cfg.lam)))
            if mixer is not None:
                for k in ks[n][eps_index]:
                    release = rmgm_release(mixer.result(n), n, partition, sigma, k,
                                           base.child("rmgm", eps_index, k))
                    rows.append(("rmgm", eps, k,
                                 rmgm_system(normal_equations(release), lam=cfg.lam)))

        outcomes = solve_symmetric([system for _, _, _, system in rows])
        for (method, eps, k, _), outcome in zip(rows, outcomes):
            if isinstance(outcome, SingularSystemError):
                if cfg.strict:
                    raise outcome
                fields = dict(status="singular", min_abs_eig=outcome.min_abs_eig)
            else:
                weights, min_eig = outcome
                fields = {metric: score(weights, reference), "min_abs_eig": min_eig}
            reports.append(TrialReport(
                method=method, seed=seed, n=n, d=d, m=cfg.m, epsilon=eps,
                delta=None if eps is None else cfg.delta, k=k, **fields,
            ))
    return reports


def _synthetic_trial(cfg: RunConfig, seed: int):
    """One seed of the synthetic protocol over the whole ``n_grid``: one
    generated pass at the largest n, whose first n rows are each n's data.
    Returns its record (largest n, seed, reports, wall seconds); a single
    n is this task over a one-entry grid."""
    started = time.perf_counter()
    base = RandomStream(cfg.root_seed).child("synthetic", seed)
    w_star = gen_ground_truth(cfg.d, base.child("truth"))
    chunks = gen_chunks(max(cfg.n_grid), w_star, base.child("data"))
    reports = _trial_methods(cfg, base, chunks, cfg.n_grid, partition_evenly(cfg.d + 1, cfg.m),
                             seed, "distance", w_star)
    return max(cfg.n_grid), seed, reports, time.perf_counter() - started


def run_synthetic(cfg: RunConfig) -> RunOutput:
    """The convergence protocol: a (method, n, epsilon, seed) sweep on
    generated data, measuring weight-space distance to the ground truth."""
    tasks = [(seed,) for seed in range(cfg.seeds)]
    return _sweep(cfg, "synthetic", _synthetic_trial, tasks, time.perf_counter())


def _real_trial(cfg: RunConfig, data: np.ndarray, seed: int):
    """One seed of the real-data protocol: split 4:1, normalize to [0, 1]
    with train statistics, release the training matrix, score on the
    held-out rows.  Returns the record (training rows, seed, reports, seconds)."""
    started = time.perf_counter()
    base = RandomStream(cfg.root_seed).child("real", seed)
    train, test = split_normalized(data, base.child("split"))
    n = train.shape[0]
    reports = _trial_methods(cfg, base, chunk_views(train), (n,),
                             partition_evenly(data.shape[1], cfg.m), seed, "test_mse", test)
    return n, seed, reports, time.perf_counter() - started


def run_real(cfg: RunConfig) -> RunOutput:
    """The real-data protocol on a user-supplied CSV."""
    started = time.perf_counter()
    if not cfg.csv_path:
        raise ValueError("real-data runs need csv_path")
    data = load_csv(cfg.csv_path, label_column=cfg.label_column)
    n, cols = data.shape
    if n < 5:
        raise DataFormatError(f"{cfg.csv_path}: {n} data rows; the 4:1 split needs at least 5")
    if cfg.m > cols:
        raise ConfigError(
            f"cannot split the {cols} columns of {cfg.csv_path} among m={cfg.m} parties"
        )
    output = _sweep(cfg, "real", _real_trial, [(data, seed) for seed in range(cfg.seeds)],
                    started)
    output.meta["dataset_rows_total"] = n
    output.meta["dataset_rows_train"] = output.trials[0].n  # split_normalized's training rows
    output.meta["dataset_features"] = cols - 1
    output.meta["k_selection_metric"] = "test_mse (optimistic: no separate validation split)"
    return output


def export_synthetic(cfg: RunConfig) -> dict[str, str]:
    """Write n_grid[0] generated rows, each formatted as it is generated,
    and a sidecar with their ground truth; return {file name: path}."""
    root = RandomStream(cfg.root_seed).child("export")
    w_star = gen_ground_truth(cfg.d, root.child("truth"))
    chunks = gen_chunks(cfg.n_grid[0], w_star, root.child("data"))
    rows = (row.tolist() for chunk in chunks for row in chunk)
    data_name, wstar_name = OUTPUT_FILES["export"]
    return _write_files(cfg.out_dir, {
        data_name: csv_lines(column_names(cfg.d), rows),
        wstar_name: csv_lines(("w_star",), ((v,) for v in w_star)),
    })


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes vs KiB


def _base_meta(cfg: RunConfig, protocol: str, started: float) -> dict:
    """Config echo, versions and the run's wall time and peak RSS, taken
    when the trials are done (``started`` is a ``perf_counter`` reading)."""
    meta = {f"config_{k}": v for k, v in asdict(cfg).items()}
    meta.update(
        protocol=protocol,
        root_seed=cfg.root_seed,
        artifact_version=__version__,
        numerics_version=NUMERICS_VERSION,
        dgm_gram="sampled from the data's Gram, exact in distribution; D + R not materialised",
        bit_generator=BIT_GENERATOR,
        python_version=platform.python_version(),
        numpy_version=np.__version__,
        wall_s=round(time.perf_counter() - started, 3),
        peak_rss_mb=round(_peak_rss_mb(), 1),
    )
    for var in BLAS_THREAD_VARS:
        meta[var] = os.environ.get(var, "unset")
    return meta


def best_k_rows(reports) -> list[tuple[float, int, float]]:
    """Per epsilon, the grid k with the lowest mean test MSE among the
    ``aggregate`` reports, as (epsilon, k, mean_mse) rows.  Ties go to
    the smallest k; groups with no successful trial are skipped."""
    best: dict[float, AggregateReport] = {}
    for r in reports:
        if r.method != "rmgm" or r.kind != "real":
            continue
        if r.epsilon not in best or r.mean_distance < best[r.epsilon].mean_distance:
            best[r.epsilon] = r
    return [(eps, best[eps].k, best[eps].mean_distance) for eps in sorted(best)]


def _check_out_dir(out_dir: str, command: str) -> None:
    """Fail before any trial runs unless ``out_dir`` or its nearest existing
    ancestor is a writable directory, and no directory or symlink that leads
    nowhere (dangling or a loop) takes the name of a ``command`` output file."""
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):  # a symlink that leads nowhere is no directory
        path = os.path.dirname(path)
    if not os.path.isdir(path) or not os.access(path, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write to --out {out_dir!r}: {path} is not a writable directory")
    for name in OUTPUT_FILES[command]:
        path = os.path.join(out_dir, name)
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {name} under --out {out_dir!r}: it is a directory")
        if os.path.islink(path) and not os.path.exists(path):
            raise ConfigError(f"cannot write {name} under --out {out_dir!r}: it is a symlink "
                              "to nothing (dangling or a loop)")


def _write_files(out_dir: str, files: dict[str, Iterable[str]]) -> dict[str, str]:
    """Make ``out_dir`` and write each file's text pieces there; return
    {file name: path}.  An OSError becomes a ConfigError that quotes it."""
    paths = {name: os.path.join(out_dir, name) for name in files}
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, pieces in files.items():
            with open(paths[name], "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
    except OSError as exc:
        raise ConfigError(f"cannot write the output: {exc}") from exc
    return paths


def write_outputs(output: RunOutput, cfg: RunConfig) -> dict[str, str]:
    """Write the run's ``OUTPUT_FILES`` under the configured output
    directory, each file in one piece, and return {file name: path}."""
    reports = aggregate(output.trials, betas=cfg.betas)
    texts = {
        "trials.csv": trials_to_csv(output.trials),
        "aggregates.csv": aggregates_to_csv(reports),
        "timings.csv": to_csv(
            ("n", "seed", "wall_time"),
            ((n, seed, f"{seconds:.6f}") for n, seed, seconds in output.timings),
        ),
        "best_k.csv": to_csv(("epsilon", "best_k", "mean_test_mse"), best_k_rows(reports)),
        "run_meta": "".join(f"{key} = {output.meta[key]}\n" for key in sorted(output.meta)),
    }
    names = OUTPUT_FILES[output.meta["protocol"]]
    return _write_files(cfg.out_dir, {name: (texts[name],) for name in names})


def run_command(command: str, cfg: RunConfig) -> str:
    """Check, run and write ``command``'s ``OUTPUT_FILES``; return the line reporting them."""
    _check_out_dir(cfg.out_dir, command)
    if command == "export":
        return f"wrote {' and '.join(export_synthetic(cfg).values())}"
    output = run_synthetic(cfg) if command == "synthetic" else run_real(cfg)
    paths = write_outputs(output, cfg)
    failed = sum(1 for t in output.trials if t.status != "ok")
    return f"{len(output.trials)} trials ({failed} singular) -> {paths['trials.csv']}"
