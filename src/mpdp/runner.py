"""Experiment orchestration: wiring generation, release, training and
metrics into the synthetic and real-data protocols.

Every trial is a pure function of (config, root seed): the random state
for trial t is derived as root.child(protocol, t) and split further into
named sub-streams, so trials can run on any number of workers in any
order and still produce identical output files.
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
from .dgm import data_root, dgm_system, sample_dgm_gram
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
NUMERICS_VERSION = 7

# Recorded in run_meta ("unset" when absent) so a run states its BLAS
# setup.  Up to d = 144 trials.csv does not depend on them:
# tests/test_cli.py and tests/test_kernels.py check it under one and two
# OpenBLAS threads, the solves at d = 120 and 200.  From d = 145 on,
# the solve's eigendecomposition (LAPACK) may round differently.
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


def _run_tasks(tasks, worker, workers: int):
    """Run ``worker`` on every task, on ``workers`` threads; return the
    trials in ``trial_order`` and each task's (n, seed, wall seconds)."""
    def timed(task):
        start = time.perf_counter()
        reports = worker(task)
        return reports, time.perf_counter() - start

    if workers <= 1:
        results = list(map(timed, tasks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(timed, tasks))
    trials = sorted((t for reports, _ in results for t in reports), key=trial_order)
    timings = tuple((reports[0].n, reports[0].seed, seconds) for reports, seconds in results)
    return tuple(trials), timings


def _trial_methods(cfg: RunConfig, base: RandomStream, chunks, n: int, partition: PartyPartition,
                   seed: int, measure) -> list[TrialReport]:
    """Run every configured method once against the n rows that
    ``chunks`` yields in ``chunk_views`` chunks, in one pass: each chunk
    goes to the bounds check, the data's normal equations and the RMGM
    sketch; only the releases and solves run after it.  OLS trains on the
    data's normal equations, and each epsilon's DGM release Gram is
    sampled from them (``sample_dgm_gram``), never materialised.
    Every method's system is built by the one function of its rule
    (``ols_system`` for ols and bgm, ``dgm_system``, ``rmgm_system``), and
    all of them are solved as one stack (``solve_symmetric``); under
    ``cfg.strict`` the first singular one in row order raises.
    ``measure(weights)`` maps a weight vector to the trial's metric field
    (a dict with either ``distance`` or ``test_mse``).  All methods see
    the same data; dgm and bgm share one release per epsilon, and every
    rmgm release mixes with the same B, so their comparisons are paired.
    """
    rows = []  # (method, epsilon, k, system)
    d = partition.total_columns - 1

    sigmas = [calibrate(eps, cfg.delta) for eps in cfg.eps_grid]
    dgm = "dgm" in cfg.methods or "bgm" in cfg.methods
    sums = NormalEquationSum(d + 1, n) if dgm or "ols" in cfg.methods else None
    ks = [choose_k(n, sigma, d, partition.d_max, cfg.k_mode, cfg.k_grid) for sigma in sigmas]
    # one shared B per trial: every (eps, k) release is a prefix of its sketch
    mixer = (SketchSum(base.child("mixing").seed64(), n, d + 1, max(map(max, ks)))
             if "rmgm" in cfg.methods else None)
    feed(chunks, *filter(None, (BoundsCheck(partition, d + 1), sums, mixer)))

    stats = sums.result() if sums is not None else None
    root = data_root(stats) if dgm else None
    if "ols" in cfg.methods:
        rows.append(("ols", None, None, ols_system(stats, lam=cfg.lam)))
    for eps_index, (eps, sigma) in enumerate(zip(cfg.eps_grid, sigmas)):
        if dgm:
            release = sample_dgm_gram(stats, root, partition, sigma, base.child("dgm", eps_index))
            if "dgm" in cfg.methods:
                rows.append(("dgm", eps, None,
                             dgm_system(release, partition.d_max, sigma, lam=cfg.lam)))
            if "bgm" in cfg.methods:
                rows.append(("bgm", eps, None, ols_system(release, lam=cfg.lam)))
        if mixer is not None:
            for k in ks[eps_index]:
                release = rmgm_release(mixer.result(), n, partition, sigma, k,
                                       base.child("rmgm", eps_index, k))
                rows.append(("rmgm", eps, k, rmgm_system(normal_equations(release), lam=cfg.lam)))

    outcomes = solve_symmetric([system for _, _, _, system in rows])
    reports = []
    for (method, eps, k, _), outcome in zip(rows, outcomes):
        if isinstance(outcome, SingularSystemError):
            if cfg.strict:
                raise outcome
            fields = dict(status="singular", min_abs_eig=outcome.min_abs_eig)
        else:
            weights, min_eig = outcome
            fields = dict(measure(weights), min_abs_eig=min_eig)
        reports.append(TrialReport(
            method=method, seed=seed, n=n, d=d, m=cfg.m, epsilon=eps,
            delta=None if eps is None else cfg.delta, k=k, **fields,
        ))
    return reports


def _synthetic_trial(cfg: RunConfig, root: RandomStream, n: int, seed: int):
    base = root.child("synthetic", seed)
    w_star = gen_ground_truth(cfg.d, base.child("truth"))
    chunks = gen_chunks(n, w_star, base.child("data"))
    return _trial_methods(cfg, base, chunks, n, partition_evenly(cfg.d + 1, cfg.m), seed,
                          measure=lambda weights: {"distance": weight_distance(weights, w_star)})


def run_synthetic(cfg: RunConfig) -> RunOutput:
    """The convergence protocol: a (method, n, epsilon, seed) sweep on
    generated data, measuring weight-space distance to the ground truth."""
    started = time.perf_counter()
    root = RandomStream(cfg.root_seed)
    tasks = [(n, seed) for n in cfg.n_grid for seed in range(cfg.seeds)]
    trials, timings = _run_tasks(
        tasks, lambda task: _synthetic_trial(cfg, root, task[0], task[1]), cfg.workers
    )
    return RunOutput(trials=trials, timings=timings, meta=_base_meta(cfg, "synthetic", started))


def _real_trial(cfg: RunConfig, root: RandomStream, data: np.ndarray, seed: int):
    """One seed of the real-data protocol: split 4:1, normalize to [0, 1]
    with train statistics, release the training matrix, score on the
    held-out rows."""
    base = root.child("real", seed)
    train, test = split_normalized(data, base.child("split"))
    return _trial_methods(cfg, base, chunk_views(train), train.shape[0],
                          partition_evenly(data.shape[1], cfg.m), seed,
                          measure=lambda weights: {"test_mse": test_mse(weights, test)})


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
    root = RandomStream(cfg.root_seed)
    trials, timings = _run_tasks(
        range(cfg.seeds), lambda seed: _real_trial(cfg, root, data, seed), cfg.workers
    )
    meta = _base_meta(cfg, "real", started)
    meta["dataset_rows_total"] = n
    meta["dataset_rows_train"] = trials[0].n  # split_normalized's training rows
    meta["dataset_features"] = cols - 1
    meta["k_selection_metric"] = "test_mse (optimistic: no separate validation split)"
    return RunOutput(trials=trials, timings=timings, meta=meta)


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
