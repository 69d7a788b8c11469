"""Golden digests: ``trials.csv`` and ``aggregates.csv`` bytes for three
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

# 2: one mixing matrix B per trial, every RMGM release a prefix of its
# sketch, and sketch rows padded to whole gemv groups of 4.
# 3: normal equations summed over row blocks of at most 8192 rows, and
# sketch column chunks of 16 384.  The synthetic and real configs fit one
# block and one chunk, so their digests are those of version 2; the
# chunked one pins what version 3 changed.
NUMERICS_VERSION = 3

SYNTHETIC_CFG = (
    "methods = ols, dgm, rmgm, bgm\n"
    "n_grid = 2000\n"
    "eps_grid = 1.0, 0.1\n"
    "seeds = 5\n"
    "root_seed = 7\n"
)
SYNTHETIC_DIGEST = "2732eb2c8ad84c1bce5faa9d52b9cce4b77f4af9b4b33aefec1e3cab0bc3054f"
SYNTHETIC_AGGREGATES_DIGEST = "347e3d270aad020a0bb4d882cdb512e8593827b1fa6ace817112042fae784f47"

REAL_CFG = (
    f"csv_path = {FIXTURE}\n"
    "label_column = expenses\n"
    "eps_grid = 1.0\n"
    "k_grid = 10, 30\n"
    "seeds = 3\n"
    "m = 3\n"
)
REAL_DIGEST = "777872450f81c30be84da00fd2a86565420755a6d606c93bc97c2575aa68578a"
REAL_AGGREGATES_DIGEST = "a80240318939ea014677ee76486f9be096bba0b2626216a0862dd797f5698c09"
REAL_BEST_K_DIGEST = "3c667d9cf2bae2bdc344e32705186f76917c25e63f0d27daa86bf36e0deae5b0"

# n = 20 011 rows of 11 columns: three row blocks (8192, 8192, 3627) for
# the normal equations and two sketch column chunks (16 384, 3627)
CHUNKED_CFG = (
    "n_grid = 20011\n"
    "eps_grid = 1.0, 0.1\n"
    "seeds = 2\n"
    "root_seed = 7\n"
)
CHUNKED_DIGEST = "bbc2360a81498b77124d9829bcacc2e0a592a2ea8bab217f816e44d805c25c40"
CHUNKED_AGGREGATES_DIGEST = "95426833548d124fc2b530ba954228198c47158ebbe018f0a449c2fea22fd8d6"

# name -> (command, config)
CONFIGS = {
    "synthetic": ("synthetic", SYNTHETIC_CFG),
    "real": ("real", REAL_CFG),
    "chunked": ("synthetic", CHUNKED_CFG),
}


@pytest.fixture(scope="module")
def run_outputs(tmp_path_factory):
    """Output directory of each pinned config, run once per module."""
    outs = {}

    def get(name):
        if name not in outs:
            command, text = CONFIGS[name]
            work = tmp_path_factory.mktemp(name)
            cfg = work / "run.cfg"
            cfg.write_text(text)
            out = work / "res"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            outs[name] = out
        return outs[name]

    return get


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "name, digest",
    [("synthetic", SYNTHETIC_DIGEST), ("real", REAL_DIGEST), ("chunked", CHUNKED_DIGEST)],
    ids=["synthetic", "real", "chunked"],
)
def test_trials_csv_digest(run_outputs, name, digest):
    out = run_outputs(name)
    assert _sha256(out / "trials.csv") == digest
    meta = (out / "run_meta").read_text().splitlines()
    assert f"numerics_version = {NUMERICS_VERSION}" in meta


@pytest.mark.parametrize(
    "name, digest",
    [
        ("synthetic", SYNTHETIC_AGGREGATES_DIGEST),
        ("real", REAL_AGGREGATES_DIGEST),
        ("chunked", CHUNKED_AGGREGATES_DIGEST),
    ],
    ids=["synthetic", "real", "chunked"],
)
def test_aggregates_csv_digest(run_outputs, name, digest):
    assert _sha256(run_outputs(name) / "aggregates.csv") == digest


def test_best_k_csv_digest(run_outputs):
    assert _sha256(run_outputs("real") / "best_k.csv") == REAL_BEST_K_DIGEST
