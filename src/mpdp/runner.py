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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
import scipy

from . import __version__
from .config import ConfigError, RunConfig
from .data_model import (
    DataFormatError,
    DataMatrix,
    PartyPartition,
    load_csv,
    normalize_minmax,
    partition_evenly,
    save_csv,
    split_train_test,
)
from .dgm import dgm_release, dgm_train
from .dp_core import calibrate
from .evaluation import (
    TrialReport,
    aggregate,
    aggregates_to_csv,
    test_mse,
    trials_to_csv,
    weight_distance,
)
from .kernels import backend_name
from .linalg import SingularSystemError, solve_normal_equations
from .rmgm import choose_k, rmgm_release, rmgm_train
from .streams import RandomStream
from .synthetic import gen_dataset, gen_ground_truth

__all__ = ["RunOutput", "run_synthetic", "run_real", "export_synthetic", "write_outputs"]

# Bumped by any change that alters trials.csv bytes on purpose, together
# with the digests in tests/test_golden.py.
NUMERICS_VERSION = 1


@dataclass(frozen=True)
class RunOutput:
    trials: tuple[TrialReport, ...]
    meta: dict


def _sort_key(t: TrialReport):
    return (t.method, t.n, t.epsilon or 0.0, t.k or 0, t.seed)


def _run_tasks(tasks, worker, workers: int):
    if workers <= 1:
        results = [worker(task) for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, tasks))
    trials = [t for batch in results for t in batch]
    trials.sort(key=_sort_key)
    return tuple(trials)


def _least_squares(x, y, lam: float):
    """OLS (and BGM, on a release): (weights, min |eigenvalue|)."""
    weights, _, min_eig = solve_normal_equations(x, y, lam, scale=len(y))
    return weights, min_eig


def _trial_methods(
    cfg: RunConfig,
    base: RandomStream,
    data: DataMatrix,
    partition: PartyPartition,
    seed: int,
    measure,
) -> list[TrialReport]:
    """Run every configured method once against ``data``.

    ``measure(weights)`` maps a weight vector to the trial's metric field
    (a dict with either ``distance`` or ``test_mse``).  All methods see
    the same data; dgm and bgm share one release per epsilon so their
    comparison is paired.
    """
    reports: list[TrialReport] = []

    def record(method, eps, k, body):
        start = time.perf_counter()
        common = dict(
            method=method,
            seed=seed,
            n=data.n,
            d=data.d,
            m=cfg.m,
            epsilon=eps,
            delta=None if eps is None else cfg.delta,
            k=k,
        )
        try:
            weights, min_eig = body()
        except SingularSystemError as exc:
            if cfg.strict:
                raise
            reports.append(TrialReport(**common, status="singular", min_abs_eig=exc.min_abs_eig))
            return
        reports.append(
            TrialReport(
                **common,
                **measure(weights),
                min_abs_eig=min_eig,
                wall_time=time.perf_counter() - start,
            )
        )

    if "ols" in cfg.methods:
        record("ols", None, None, lambda: _least_squares(data.features(), data.labels(), cfg.lam))
    for eps_index, eps in enumerate(cfg.eps_grid):
        priv = calibrate(eps, cfg.delta)
        if "dgm" in cfg.methods or "bgm" in cfg.methods:
            release = dgm_release(data, partition, priv, base.child("dgm", eps_index))
            if "dgm" in cfg.methods:

                def train_dgm(release=release, priv=priv):
                    weights, diag = dgm_train(release, partition.d_max, priv, cfg.lam)
                    return weights, diag.min_abs_eigenvalue

                record("dgm", eps, None, train_dgm)
            if "bgm" in cfg.methods:
                record(
                    "bgm",
                    eps,
                    None,
                    lambda release=release: _least_squares(
                        release.public_matrix[:, :-1], release.public_matrix[:, -1], cfg.lam
                    ),
                )
        if "rmgm" in cfg.methods:
            if cfg.k_mode == "grid":
                ks = choose_k(data.n, priv.sigma, mode="grid", grid=cfg.k_grid)
            else:
                ks = (
                    choose_k(
                        data.n, priv.sigma, d=data.d, d_max=partition.d_max, mode=cfg.k_mode
                    ),
                )
            for k in ks:
                release = rmgm_release(data, partition, priv, k, base.child("rmgm", eps_index, k))
                record("rmgm", eps, k, lambda release=release: rmgm_train(release, cfg.lam))
    return reports


def _synthetic_trial(cfg: RunConfig, root: RandomStream, n: int, seed: int):
    base = root.child("synthetic", seed)
    truth = gen_ground_truth(cfg.d, base.child("truth"))
    data = gen_dataset(n, truth, base.child("data"))
    partition = partition_evenly(cfg.d + 1, cfg.m)
    return _trial_methods(
        cfg,
        base,
        data,
        partition,
        seed,
        measure=lambda weights: {"distance": weight_distance(weights, truth.w_star)},
    )


def run_synthetic(cfg: RunConfig) -> RunOutput:
    """The convergence protocol: a (method, n, epsilon, seed) sweep on
    generated data, measuring weight-space distance to the ground truth."""
    started = time.perf_counter()
    root = RandomStream(cfg.root_seed)
    tasks = [(n, seed) for n in cfg.n_grid for seed in range(cfg.seeds)]
    trials = _run_tasks(
        tasks, lambda task: _synthetic_trial(cfg, root, task[0], task[1]), cfg.workers
    )
    return RunOutput(trials=trials, meta=_base_meta(cfg, "synthetic", started))


def _real_trial(cfg: RunConfig, root: RandomStream, data: DataMatrix, seed: int):
    """One seed of the real-data protocol: split 4:1, normalize to [0, 1]
    with train statistics, release the training matrix, score on the
    held-out rows."""
    base = root.child("real", seed)
    train_raw, test_raw = split_train_test(data, base.child("split"))
    split = normalize_minmax(train_raw, test_raw)
    partition = partition_evenly(data.d + 1, cfg.m)
    return _trial_methods(
        cfg,
        base,
        split.train,
        partition,
        seed,
        measure=lambda weights: {"test_mse": test_mse(weights, split.test)},
    )


def run_real(cfg: RunConfig) -> RunOutput:
    """The real-data protocol on a user-supplied CSV."""
    started = time.perf_counter()
    if not cfg.csv_path:
        raise ValueError("real-data runs need csv_path")
    data = load_csv(cfg.csv_path, label_column=cfg.label_column)
    if data.n < 5:
        raise DataFormatError(f"{cfg.csv_path}: {data.n} data rows; the 4:1 split needs at least 5")
    if cfg.m > data.d + 1:
        raise ConfigError(
            f"cannot split the {data.d + 1} columns of {cfg.csv_path} among m={cfg.m} parties"
        )
    root = RandomStream(cfg.root_seed)
    trials = _run_tasks(
        range(cfg.seeds), lambda seed: _real_trial(cfg, root, data, seed), cfg.workers
    )
    meta = _base_meta(cfg, "real", started)
    meta["dataset_rows_total"] = data.n
    meta["dataset_rows_train"] = round(0.8 * data.n)
    meta["dataset_features"] = data.d
    meta["k_selection_metric"] = "test_mse (optimistic: no separate validation split)"
    return RunOutput(trials=trials, meta=meta)


def export_synthetic(cfg: RunConfig, out_dir: str) -> tuple[str, str]:
    """Write one generated dataset plus a sidecar with its ground truth."""
    root = RandomStream(cfg.root_seed).child("export")
    truth = gen_ground_truth(cfg.d, root.child("truth"))
    data = gen_dataset(cfg.n_grid[0], truth, root.child("data"))
    os.makedirs(out_dir, exist_ok=True)
    data_path = os.path.join(out_dir, "synthetic.csv")
    wstar_path = os.path.join(out_dir, "synthetic_wstar.csv")
    save_csv(data, data_path)
    with open(wstar_path, "w", encoding="utf-8") as fh:
        fh.write("w_star\n")
        for v in truth.w_star:
            fh.write(format(v, ".17g") + "\n")
    return data_path, wstar_path


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
        kernel_backend=backend_name(),
        python_version=platform.python_version(),
        numpy_version=np.__version__,
        scipy_version=scipy.__version__,
        wall_s=round(time.perf_counter() - started, 3),
        peak_rss_mb=round(_peak_rss_mb(), 1),
    )
    return meta


def best_k_rows(trials) -> list[tuple[float, int, float]]:
    """Per epsilon, the grid k with the lowest mean test MSE, as
    (epsilon, k, mean_mse) rows."""
    by_eps: dict[float, dict[int, list[float]]] = {}
    for t in trials:
        if t.method != "rmgm" or t.status != "ok" or t.test_mse is None:
            continue
        by_eps.setdefault(t.epsilon, {}).setdefault(t.k, []).append(t.test_mse)
    rows = []
    for eps in sorted(by_eps):
        means = {k: sum(v) / len(v) for k, v in by_eps[eps].items()}
        best = min(sorted(means), key=lambda k: means[k])
        rows.append((eps, best, means[best]))
    return rows


def write_outputs(output: RunOutput, cfg: RunConfig) -> dict[str, str]:
    """Write trials.csv, aggregates.csv, timings.csv, run_meta (and
    best_k.csv for real runs) under the configured output directory."""
    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    paths["trials"] = os.path.join(out_dir, "trials.csv")
    with open(paths["trials"], "w", encoding="utf-8", newline="") as fh:
        fh.write(trials_to_csv(output.trials))

    paths["aggregates"] = os.path.join(out_dir, "aggregates.csv")
    reports = aggregate(output.trials, betas=cfg.betas)
    with open(paths["aggregates"], "w", encoding="utf-8", newline="") as fh:
        fh.write(aggregates_to_csv(reports))

    paths["timings"] = os.path.join(out_dir, "timings.csv")
    with open(paths["timings"], "w", encoding="utf-8", newline="") as fh:
        fh.write("method,seed,n,epsilon,k,wall_time\n")
        for t in output.trials:
            eps = "" if t.epsilon is None else format(t.epsilon, "g")
            k = "" if t.k is None else str(t.k)
            fh.write(f"{t.method},{t.seed},{t.n},{eps},{k},{t.wall_time:.6f}\n")

    if output.meta.get("protocol") == "real":
        paths["best_k"] = os.path.join(out_dir, "best_k.csv")
        with open(paths["best_k"], "w", encoding="utf-8", newline="") as fh:
            fh.write("epsilon,best_k,mean_test_mse\n")
            for eps, k, mse in best_k_rows(output.trials):
                fh.write(f"{format(eps, 'g')},{k},{format(mse, '.17g')}\n")

    paths["run_meta"] = os.path.join(out_dir, "run_meta")
    with open(paths["run_meta"], "w", encoding="utf-8", newline="") as fh:
        for key in sorted(output.meta):
            fh.write(f"{key} = {output.meta[key]}\n")
    return paths
