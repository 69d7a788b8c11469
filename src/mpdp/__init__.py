"""Differentially private multi-party data release for linear regression.

Two release mechanisms for vertically partitioned data (an additive
Gaussian release trained with de-biasing, and a shared random-mixing
release trained by plain least squares), the non-private and no-debias
baselines, synthetic and real-data experiment harnesses, and the
diagnostic metrics that compare them.
"""

__version__ = "0.1.0"

from .data_model import (
    DataFormatError,
    PartyPartition,
    load_csv,
    partition_evenly,
    split_normalized,
)
from .dgm import dgm_release, dgm_system, sample_dgm_gram
from .dp_core import calibrate, sensitivity_bound
from .evaluation import (
    AggregateReport,
    TrialReport,
    aggregate,
    tail_probability,
    test_mse,
    weight_distance,
)
from .linalg import NormalEquations, SingularSystemError, normal_equations, ols_system, solve_system
from .rmgm import K_GRID, choose_k, rmgm_release, rmgm_system
from .streams import RandomStream
from .synthetic import gen_ground_truth

__all__ = [
    "__version__",
    "AggregateReport",
    "DataFormatError",
    "K_GRID",
    "NormalEquations",
    "PartyPartition",
    "RandomStream",
    "SingularSystemError",
    "TrialReport",
    "aggregate",
    "calibrate",
    "choose_k",
    "dgm_release",
    "dgm_system",
    "gen_ground_truth",
    "load_csv",
    "normal_equations",
    "ols_system",
    "partition_evenly",
    "rmgm_release",
    "rmgm_system",
    "sample_dgm_gram",
    "sensitivity_bound",
    "solve_system",
    "split_normalized",
    "tail_probability",
    "test_mse",
    "weight_distance",
]
