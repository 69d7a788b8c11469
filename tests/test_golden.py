"""Golden digests: ``trials.csv`` and ``aggregates.csv`` bytes for two
small pinned configs, and ``best_k.csv`` for the real one.

The rerun tests only compare a run with another run of the same code;
these pin the bytes across versions.  A change that alters numerics on
purpose bumps ``NUMERICS_VERSION`` in ``mpdp.runner`` and updates the
digests and ``numerics_version`` below in the same commit.
"""

import hashlib
import os

import pytest

from mpdp.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "insurance_sample.csv")

NUMERICS_VERSION = 1

SYNTHETIC_CFG = (
    "methods = ols, dgm, rmgm, bgm\n"
    "n_grid = 2000\n"
    "eps_grid = 1.0, 0.1\n"
    "seeds = 5\n"
    "root_seed = 7\n"
)
SYNTHETIC_DIGEST = "d661e649569c496029de5aef4bfd06503747d1bba39494236978e46850930072"
SYNTHETIC_AGGREGATES_DIGEST = "70fe9b9f253d74421669064a98f6017d914f0a61aa90ee98e6f14f2787b5d3b7"

REAL_CFG = (
    f"csv_path = {FIXTURE}\n"
    "label_column = expenses\n"
    "eps_grid = 1.0\n"
    "k_grid = 10, 30\n"
    "seeds = 3\n"
    "m = 3\n"
)
REAL_DIGEST = "2724b6654f67ec10ab2fc748d4abc222e2aa9effea9310955052b86480f601cc"
REAL_AGGREGATES_DIGEST = "fcb2af9b61d248f62a993cb8d15fd4a5db14cf31eab339ac5391cdb55e646b0a"
REAL_BEST_K_DIGEST = "23cc27291858cd557d9a32527008dc985f78fd43f38a0754bc08ec5bb10e2609"

CONFIGS = {"synthetic": SYNTHETIC_CFG, "real": REAL_CFG}


@pytest.fixture(scope="module")
def run_outputs(tmp_path_factory):
    """Output directory of each pinned config, run once per module."""
    outs = {}

    def get(command):
        if command not in outs:
            work = tmp_path_factory.mktemp(command)
            cfg = work / "run.cfg"
            cfg.write_text(CONFIGS[command])
            out = work / "res"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            outs[command] = out
        return outs[command]

    return get


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "command, digest",
    [("synthetic", SYNTHETIC_DIGEST), ("real", REAL_DIGEST)],
    ids=["synthetic", "real"],
)
def test_trials_csv_digest(run_outputs, command, digest):
    out = run_outputs(command)
    assert _sha256(out / "trials.csv") == digest
    meta = (out / "run_meta").read_text().splitlines()
    assert f"numerics_version = {NUMERICS_VERSION}" in meta


@pytest.mark.parametrize(
    "command, digest",
    [("synthetic", SYNTHETIC_AGGREGATES_DIGEST), ("real", REAL_AGGREGATES_DIGEST)],
    ids=["synthetic", "real"],
)
def test_aggregates_csv_digest(run_outputs, command, digest):
    assert _sha256(run_outputs(command) / "aggregates.csv") == digest


def test_best_k_csv_digest(run_outputs):
    assert _sha256(run_outputs("real") / "best_k.csv") == REAL_BEST_K_DIGEST
