"""Golden digests: ``trials.csv`` bytes for two small pinned configs.

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

REAL_CFG = (
    f"csv_path = {FIXTURE}\n"
    "label_column = expenses\n"
    "eps_grid = 1.0\n"
    "k_grid = 10, 30\n"
    "seeds = 3\n"
    "m = 3\n"
)
REAL_DIGEST = "2724b6654f67ec10ab2fc748d4abc222e2aa9effea9310955052b86480f601cc"


@pytest.mark.parametrize(
    "command, cfg_text, digest",
    [
        ("synthetic", SYNTHETIC_CFG, SYNTHETIC_DIGEST),
        ("real", REAL_CFG, REAL_DIGEST),
    ],
    ids=["synthetic", "real"],
)
def test_trials_csv_digest(tmp_path, command, cfg_text, digest):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "res"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "trials.csv").read_bytes()).hexdigest() == digest
    meta = (out / "run_meta").read_text().splitlines()
    assert f"numerics_version = {NUMERICS_VERSION}" in meta
