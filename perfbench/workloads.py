"""The benchmark's workloads: generated configs and inputs, and the rows
each run must produce.

Every input is a pure function of the workload seed: the seed becomes
the sweep's ``--root-seed`` and, for ``real_kgrid``, seeds the CSV the
benchmark writes.  The expected-row sets and the OLS tolerance are
derived here from the workload definition alone, independently of the
package under test, so they can judge its output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

METHODS = ("ols", "dgm", "rmgm", "bgm")
DELTA = 1e-5
LAMBDA = 1e-5
DESK_N_GRID = (10_000, 30_000, 100_000, 300_000)  # mirrors configs/synthetic_desk.cfg
DEFAULT_K_GRID = (100, 300, 1000, 3000, 10000)  # the package default, written out
REAL_ROWS = 20_000
REAL_LABEL = "cnt"
# bike-sharing style columns: (name, low, high, integer-valued)
REAL_FEATURES = (
    ("season", 1, 4, True),
    ("yr", 0, 1, True),
    ("mnth", 1, 12, True),
    ("hr", 0, 23, True),
    ("holiday", 0, 1, True),
    ("weekday", 0, 6, True),
    ("workingday", 0, 1, True),
    ("weathersit", 1, 4, True),
    ("temp", -8.0, 39.0, False),
    ("atemp", -16.0, 50.0, False),
    ("hum", 0.0, 100.0, False),
    ("windspeed", 0.0, 57.0, False),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocol: str  # "synthetic" or "real"
    workers: int
    seeds: int
    eps_grid: tuple[float, ...]
    n_grid: tuple[int, ...] = ()
    d: int = 10
    m: int = 6
    k_grid: tuple[int, ...] = ()
    # one sketch_product call checked against the materialised matrix:
    # (k, n, c) in the shape class this workload drives the kernel in
    kernel_shape: tuple[int, int, int] = (0, 0, 0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_sweep",
            why="the desk convergence grid (n 1e4..3e5, 3 eps) with 2 thread workers: "
            "small-k large-n sketch, data generation, DGM release, pool effects",
            protocol="synthetic",
            workers=2,
            seeds=2,
            eps_grid=(1.0, 0.3, 0.1),
            n_grid=DESK_N_GRID,
            # crosses the 65536-column tile boundary
            kernel_shape=(37, 70_000, 11),
        ),
        Workload(
            name="small_n",
            why="n = 2000, many seeds, 1 worker: per-trial fixed costs (streams, noise, "
            "solves, records, CSV) dominate; the no-change control for kernel work",
            protocol="synthetic",
            workers=1,
            seeds=50,
            eps_grid=(1.0, 0.3, 0.1),
            n_grid=(2000,),
            kernel_shape=(9, 2000, 11),
        ),
        Workload(
            name="real_kgrid",
            why="real protocol on a generated 2e4-row CSV with the default k grid up to "
            "1e4, 1 worker: large-k small-n sketch tiles, ingest, split and test MSE",
            protocol="real",
            workers=1,
            seeds=1,
            eps_grid=(1.0,),
            d=len(REAL_FEATURES),
            m=5,
            k_grid=DEFAULT_K_GRID,
            # crosses the 512-row tile boundary
            kernel_shape=(600, 4000, 13),
        ),
    )
}


def sigma(eps: float) -> float:
    return math.sqrt(2.0 * math.log(1.25 / DELTA)) / eps


def synthetic_k(n: int, eps: float) -> int:
    """The documented ``k_mode = synthetic`` rule, k = max(1, round(sqrt(n)/sigma))."""
    return max(1, round(math.sqrt(n) / sigma(eps)))


def real_train_rows() -> int:
    return round(0.8 * REAL_ROWS)


def write_real_csv(path: str, seed: int) -> None:
    """A bike-sharing sized numeric CSV with values outside [0, 1] and the
    label column in the middle (so ingest has to move it last)."""
    import numpy as np

    rng = np.random.default_rng([seed, 0x6B696B65])
    cols = []
    for _, lo, hi, integer in REAL_FEATURES:
        if integer:
            cols.append(rng.integers(lo, hi + 1, size=REAL_ROWS).astype(np.float64))
        else:
            cols.append(np.round(rng.uniform(lo, hi, size=REAL_ROWS), 4))
    features = np.column_stack(cols)
    weights = rng.uniform(-8.0, 8.0, size=features.shape[1])
    label = np.round(np.abs(features @ weights + rng.normal(150.0, 40.0, REAL_ROWS)))
    names = [f[0] for f in REAL_FEATURES]
    half = len(names) // 2
    header = names[:half] + [REAL_LABEL] + names[half:]
    table = np.column_stack([features[:, :half], label, features[:, half:]])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(",".join(format(v, "g") for v in row) + "\n")


def config_text(w: Workload, out_dir: str, csv_path: str | None = None, **override) -> str:
    """The key = value config a run of ``w`` reads; ``override`` replaces
    grid fields (used by the short worker-invariance config)."""
    values = {
        "methods": ", ".join(METHODS),
        "eps_grid": ", ".join(str(e) for e in w.eps_grid),
        "delta": DELTA,
        "lambda": LAMBDA,
        "m": w.m,
        "seeds": w.seeds,
        "workers": w.workers,
        "out_dir": out_dir,
    }
    if w.protocol == "synthetic":
        values.update(n_grid=", ".join(map(str, w.n_grid)), d=w.d, k_mode="synthetic")
    else:
        values.update(
            k_mode="grid",
            k_grid=", ".join(map(str, w.k_grid)),
            csv_path=csv_path,
            label_column=REAL_LABEL,
        )
    for key, value in override.items():
        values[key] = ", ".join(map(str, value)) if isinstance(value, tuple) else value
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def expected_keys(w: Workload) -> set[tuple]:
    """Every (method, n, epsilon, k, seed) row a complete run writes."""
    keys = set()
    n_values = w.n_grid if w.protocol == "synthetic" else (real_train_rows(),)
    for n in n_values:
        for seed in range(w.seeds):
            keys.add(("ols", n, None, None, seed))
            for eps in w.eps_grid:
                keys.add(("dgm", n, eps, None, seed))
                keys.add(("bgm", n, eps, None, seed))
                ks = (synthetic_k(n, eps),) if w.protocol == "synthetic" else w.k_grid
                for k in ks:
                    keys.add(("rmgm", n, eps, k, seed))
    return keys


def ols_tolerance(w: Workload) -> float:
    """Bound on the OLS distance ||w_hat - w*|| for noiseless synthetic labels.

    The ridge term leaves w_hat - w* = -lam (S + lam I)^-1 w*, with S the
    feature second-moment matrix (about I/3 for U(-1, 1) features) and
    ||w*|| <= 1/sqrt(d), so the error is about 3 lam / sqrt(d).  The gate
    allows ten times that.
    """
    return 10.0 * 3.0 * LAMBDA / math.sqrt(w.d)
