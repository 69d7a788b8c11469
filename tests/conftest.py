import numpy as np
import pytest

from mpdp.config import build_config
from mpdp.runner import run_synthetic
from mpdp.streams import RandomStream

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


class _CountingGenerator:
    """A generator that logs (stream path, method, entries) of each
    ``standard_normal`` and ``chisquare`` draw and passes the rest on."""

    def __init__(self, gen, path, log):
        self._gen, self._path, self._log = gen, path, log

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if name not in ("standard_normal", "chisquare"):
            return attr

        def draw(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._log.append((self._path, name, np.size(out)))
            return out

        return draw


@pytest.fixture
def draws(monkeypatch):
    """(stream path, method, entries) of every normal and chi-square draw
    from a ``RandomStream`` generator while the test runs."""
    log = []
    generator = RandomStream.generator
    monkeypatch.setattr(RandomStream, "generator",
                        lambda stream: _CountingGenerator(generator(stream), stream.path, log))
    return log
