"""Differentially private multi-party data release for linear regression.

Two release mechanisms for vertically partitioned data (an additive
Gaussian release trained with de-biasing, and a shared random-mixing
release trained by plain least squares), the non-private and no-debias
baselines, synthetic and real-data experiment harnesses, and the
diagnostic metrics that compare them.
"""

__version__ = "0.1.0"

from .baselines import bgm_train, ols_train
from .data_model import (
    BoundsReport,
    DataFormatError,
    DataMatrix,
    PartyPartition,
    SplitDataset,
    load_csv,
    normalize_minmax,
    partition_evenly,
    save_csv,
    slice_party,
    split_train_test,
    validate_bounds,
)
from .dgm import DgmRelease, dgm_release, dgm_train
from .dp_core import PrivacyParams, calibrate, gaussian_noise, sensitivity_bound
from .evaluation import (
    AggregateReport,
    TrialReport,
    aggregate,
    tail_probability,
    test_mse,
    weight_distance,
)
from .linalg import SingularSystemError
from .rmgm import K_GRID, RmgmRelease, choose_k, rmgm_release, rmgm_train
from .streams import RandomStream, as_stream
from .synthetic import GroundTruth, gen_dataset, gen_ground_truth

__all__ = [
    "__version__",
    "AggregateReport",
    "BoundsReport",
    "DataFormatError",
    "DataMatrix",
    "DgmRelease",
    "GroundTruth",
    "K_GRID",
    "PartyPartition",
    "PrivacyParams",
    "RandomStream",
    "RmgmRelease",
    "SingularSystemError",
    "SplitDataset",
    "TrialReport",
    "aggregate",
    "as_stream",
    "bgm_train",
    "calibrate",
    "choose_k",
    "dgm_release",
    "dgm_train",
    "gaussian_noise",
    "gen_dataset",
    "gen_ground_truth",
    "load_csv",
    "normalize_minmax",
    "ols_train",
    "partition_evenly",
    "rmgm_release",
    "rmgm_train",
    "save_csv",
    "sensitivity_bound",
    "slice_party",
    "split_train_test",
    "tail_probability",
    "test_mse",
    "validate_bounds",
    "weight_distance",
]
