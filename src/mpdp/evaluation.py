"""Trial records, tail/distance/MSE metrics and seed-ensemble aggregation.

One TrialReport per (method, seed) run; aggregation groups trials by
(method, n, epsilon, k) and reports tail probabilities, mean/median
metric, standard error and the rate of near-singular trained systems.
Synthetic trials carry a weight-space distance, real-data trials a test
MSE; the two kinds never mix within a group.

CSV output serializes floats with 17 significant digits so downstream
analysis can reproduce values bit-faithfully.  Trial wall times are
deliberately not part of trials.csv (its bytes must be a pure function
of config and root seed); the runner writes them to timings.csv.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .data_model import DataMatrix

__all__ = [
    "PATHOLOGY_THRESHOLD",
    "TrialReport",
    "AggregateReport",
    "weight_distance",
    "tail_probability",
    "test_mse",
    "aggregate",
    "trials_to_csv",
    "aggregates_to_csv",
]

PATHOLOGY_THRESHOLD = 1e-2

TRIAL_COLUMNS = (
    "method",
    "seed",
    "n",
    "d",
    "m",
    "k",
    "epsilon",
    "delta",
    "distance",
    "test_mse",
    "min_abs_eig",
    "status",
)

# aggregates.csv columns before the per-beta tail_prob_<beta> columns
AGGREGATE_COLUMNS = (
    "method",
    "n",
    "epsilon",
    "k",
    "kind",
    "num_trials",
    "num_failed",
    "mean_distance",
    "median_distance",
    "std_error",
    "pathology_rate",
)


@dataclass(frozen=True)
class TrialReport:
    """The outcome of one seeded trial of one method."""

    method: str
    seed: int
    n: int
    d: int
    m: int
    epsilon: float | None
    delta: float | None
    k: int | None = None
    distance: float | None = None
    test_mse: float | None = None
    min_abs_eig: float | None = None
    status: str = "ok"
    wall_time: float = 0.0

    def __post_init__(self) -> None:
        if self.method not in ("ols", "dgm", "rmgm", "bgm"):
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.status not in ("ok", "singular"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "ok":
            have = (self.distance is not None) + (self.test_mse is not None)
            if have != 1:
                raise ValueError("exactly one of distance/test_mse is required")
            metric = self.distance if self.distance is not None else self.test_mse
            if metric < 0:
                raise ValueError("metrics must be non-negative")

    @property
    def kind(self) -> str:
        if self.status != "ok":
            return "failed"
        return "synthetic" if self.distance is not None else "real"

    @property
    def metric(self) -> float | None:
        return self.distance if self.distance is not None else self.test_mse


@dataclass(frozen=True)
class AggregateReport:
    """Seed-ensemble statistics for one (method, n, epsilon, k) group."""

    method: str
    n: int
    epsilon: float | None
    k: int | None
    kind: str
    num_trials: int
    num_failed: int
    mean_distance: float
    median_distance: float
    std_error: float
    pathology_rate: float
    tail_probs: tuple[tuple[float, float], ...]


def weight_distance(w_hat: np.ndarray, w_star: np.ndarray) -> float:
    """Euclidean distance between two weight vectors of equal length."""
    w_hat = np.asarray(w_hat, dtype=np.float64)
    w_star = np.asarray(w_star, dtype=np.float64)
    if w_hat.shape != w_star.shape or w_hat.ndim != 1:
        raise ValueError(f"length mismatch: {w_hat.shape} vs {w_star.shape}")
    return float(np.linalg.norm(w_hat - w_star))


def tail_probability(distances, beta: float) -> float:
    """Fraction of values strictly greater than beta."""
    values = list(distances)
    if not values:
        raise ValueError("tail probability of an empty sequence is undefined")
    return sum(1 for v in values if v > beta) / len(values)


def test_mse(weights: np.ndarray, test: DataMatrix) -> float:
    """Mean squared prediction error of ``weights`` on a test matrix."""
    if test.n < 1:
        raise ValueError("test set is empty")
    residual = test.features() @ np.asarray(weights, dtype=np.float64) - test.labels()
    return float(np.mean(residual**2))


def _group_key(t: TrialReport):
    return (
        t.method,
        t.n,
        t.epsilon if t.epsilon is not None else -1.0,
        t.k if t.k is not None else -1,
    )


def aggregate(trials, betas=(0.05, 0.1, 0.2, 0.5)) -> list[AggregateReport]:
    """Group trials by (method, n, epsilon, k) and summarize each group.

    Trials are sorted by seed first, so the output is independent of the
    execution order that produced them.  Failed trials count toward the
    pathology rate (their system diagnostics are known) but not toward
    the metric statistics.
    """
    betas = tuple(betas)
    groups: dict[tuple, list[TrialReport]] = {}
    for t in sorted(trials, key=lambda t: (_group_key(t), t.seed)):
        groups.setdefault(_group_key(t), []).append(t)
    out = []
    for key in sorted(groups):
        members = groups[key]
        ok = [t for t in members if t.status == "ok"]
        kinds = {t.kind for t in ok}
        if len(kinds) > 1:
            raise ValueError(f"mixed experiment kinds {kinds} in group {key}")
        metrics = [t.metric for t in ok]
        eigs = [t.min_abs_eig for t in members if t.min_abs_eig is not None]
        first = members[0]
        out.append(
            AggregateReport(
                method=first.method,
                n=first.n,
                epsilon=first.epsilon,
                k=first.k,
                kind=kinds.pop() if kinds else "failed",
                num_trials=len(members),
                num_failed=len(members) - len(ok),
                mean_distance=statistics.fmean(metrics) if metrics else math.nan,
                median_distance=statistics.median(metrics) if metrics else math.nan,
                std_error=(
                    statistics.stdev(metrics) / math.sqrt(len(metrics))
                    if len(metrics) > 1
                    else 0.0
                ),
                pathology_rate=(
                    sum(1 for e in eigs if e < PATHOLOGY_THRESHOLD) / len(eigs)
                    if eigs
                    else 0.0
                ),
                tail_probs=tuple(
                    (b, tail_probability(metrics, b) if metrics else math.nan)
                    for b in betas
                ),
            )
        )
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def trials_to_csv(trials) -> str:
    """Render trials as CSV text (stable column set, no wall times)."""
    lines = [",".join(TRIAL_COLUMNS)]
    lines += [",".join(_fmt(getattr(t, c)) for c in TRIAL_COLUMNS) for t in trials]
    return "\n".join(lines) + "\n"


def aggregates_to_csv(reports) -> str:
    """Render aggregate reports as CSV text.

    For real-data runs the distance columns summarize test MSE (the
    group's ``kind`` column says which).  Tail columns appear once per
    configured beta.
    """
    betas = reports[0].tail_probs if reports else ()
    header = list(AGGREGATE_COLUMNS) + [f"tail_prob_{format(b, 'g')}" for b, _ in betas]
    lines = [",".join(header)]
    for r in reports:
        row = [getattr(r, c) for c in AGGREGATE_COLUMNS] + [p for _, p in r.tail_probs]
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"
