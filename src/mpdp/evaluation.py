"""Trial records, tail/distance/MSE metrics and seed-ensemble aggregation.

One TrialReport per (method, seed) run; aggregation groups trials by
(method, n, epsilon, k) and reports tail probabilities, mean/median
metric, standard error and the rate of near-singular trained systems.
Synthetic trials carry a weight-space distance, real-data trials a test
MSE; the two kinds never mix within a group.

CSV output serializes floats with 17 significant digits so downstream
analysis can reproduce values bit-faithfully.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import chain
from operator import attrgetter

import numpy as np

__all__ = [
    "METHODS",
    "PATHOLOGY_THRESHOLD",
    "TrialReport",
    "AggregateReport",
    "weight_distance",
    "tail_probability",
    "tail_prob_column",
    "test_mse",
    "aggregate",
    "trial_order",
    "csv_lines",
    "to_csv",
    "trials_to_csv",
    "aggregates_to_csv",
]

METHODS = ("ols", "dgm", "rmgm", "bgm")
PATHOLOGY_THRESHOLD = 1e-2


@dataclass(frozen=True, slots=True)
class TrialReport:
    """The outcome of one seeded trial of one method."""

    method: str
    seed: int
    n: int
    d: int
    m: int
    k: int | None
    epsilon: float | None
    delta: float | None
    distance: float | None = None
    test_mse: float | None = None
    min_abs_eig: float | None = None
    status: str = "ok"

    def __post_init__(self) -> None:
        if self.method not in METHODS:
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


# the CSV columns are the record fields; the per-beta tail_prob_<beta>
# columns follow AGGREGATE_COLUMNS
TRIAL_COLUMNS = tuple(f.name for f in fields(TrialReport))
AGGREGATE_COLUMNS = tuple(f.name for f in fields(AggregateReport) if f.name != "tail_probs")


def weight_distance(w_hat: np.ndarray, w_star: np.ndarray) -> float:
    """Euclidean distance between two weight vectors of equal length:
    the square root of the difference's dot with itself, as
    ``np.linalg.norm`` computes it."""
    w_hat = np.asarray(w_hat, dtype=np.float64)
    w_star = np.asarray(w_star, dtype=np.float64)
    if w_hat.shape != w_star.shape or w_hat.ndim != 1:
        raise ValueError(f"length mismatch: {w_hat.shape} vs {w_star.shape}")
    diff = w_hat - w_star
    return math.sqrt(diff.dot(diff))


def tail_probability(distances, beta: float) -> float:
    """Fraction of values strictly greater than beta."""
    values = list(distances)
    if not values:
        raise ValueError("tail probability of an empty sequence is undefined")
    return sum(1 for v in values if v > beta) / len(values)


def test_mse(weights: np.ndarray, test: np.ndarray) -> float:
    """Mean squared prediction error of ``weights`` on a test matrix, label last."""
    if test.shape[0] < 1:
        raise ValueError("test set is empty")
    residual = test[:, :-1] @ np.asarray(weights, dtype=np.float64) - test[:, -1]
    return float(np.mean(residual**2))


def trial_order(t: TrialReport) -> tuple:
    """The one order of trials: by (method, n, epsilon, k) group, then by
    seed.  ``aggregate`` groups by all of it but the seed."""
    return (
        t.method,
        t.n,
        t.epsilon if t.epsilon is not None else -1.0,
        t.k if t.k is not None else -1,
        t.seed,
    )


def aggregate(trials, betas) -> list[AggregateReport]:
    """Group trials by (method, n, epsilon, k) and summarize each group,
    with one tail probability per beta in ``betas``.

    Trials are put in ``trial_order`` first, so the output is independent
    of the execution order that produced them.  Failed trials count toward
    the pathology rate (their system diagnostics are known) but not toward
    the metric statistics.
    """
    betas = tuple(betas)
    groups: dict[tuple, list[TrialReport]] = {}
    for t in sorted(trials, key=trial_order):
        groups.setdefault(trial_order(t)[:-1], []).append(t)
    out = []
    for key, members in groups.items():  # in trial_order
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
                    sum(1 for e in eigs if not e >= PATHOLOGY_THRESHOLD) / len(eigs)  # nan counts
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


def csv_lines(header, rows) -> Iterator[str]:
    """CSV text, each line formatted as it is read: the header, then the
    rows.  A float (numpy's float64 too) is written with 17 significant
    digits, None as an empty field and anything else by ``str``."""
    return (
        ",".join(["" if v is None else "%.17g" % v if isinstance(v, float) else str(v)
                  for v in row]) + "\n"
        for row in chain((header,), rows)
    )


def to_csv(header, rows) -> str:
    """CSV text: ``csv_lines`` joined into one string."""
    return "".join(csv_lines(header, rows))


def trials_to_csv(trials) -> str:
    """Render trials as CSV text, one column per ``TrialReport`` field."""
    return to_csv(TRIAL_COLUMNS, map(attrgetter(*TRIAL_COLUMNS), trials))


def tail_prob_column(beta: float) -> str:
    """The aggregates.csv column of beta's tail probability."""
    return f"tail_prob_{format(beta, 'g')}"


def aggregates_to_csv(reports) -> str:
    """Render aggregate reports as CSV text.

    For real-data runs the distance columns summarize test MSE (the
    group's ``kind`` column says which).  Tail columns appear once per
    configured beta.
    """
    betas = reports[0].tail_probs if reports else ()
    header = [*AGGREGATE_COLUMNS, *(tail_prob_column(b) for b, _ in betas)]
    return to_csv(header, (
        [*(getattr(r, c) for c in AGGREGATE_COLUMNS), *(p for _, p in r.tail_probs)]
        for r in reports
    ))
