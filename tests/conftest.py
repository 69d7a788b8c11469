import pytest

from mpdp.config import build_config
from mpdp.runner import run_synthetic

SWEEP_ROOT_SEED = 424242
SWEEP_N_GRID = (10_000, 30_000, 100_000, 300_000)


@pytest.fixture(scope="session")
def sweep():
    """All four methods on the desk-scale synthetic grid, eps = 1.0,
    200 seeds.  Shared by the acceptance criteria and the statistical
    property tests.  It runs on two workers: trials.csv is the same for
    any worker count (tests/test_cli.py::TestChunkCrossingInvariance)."""
    cfg = build_config(
        {},
        dict(
            methods=("ols", "dgm", "rmgm", "bgm"),
            n_grid=SWEEP_N_GRID,
            eps_grid=(1.0,),
            delta=1e-5,
            d=10,
            m=6,
            seeds=200,
            root_seed=SWEEP_ROOT_SEED,
            workers=2,
        ),
    )
    return run_synthetic(cfg)
