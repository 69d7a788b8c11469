"""Golden digests: ``trials.csv`` and ``aggregates.csv`` bytes for four
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
# 4: every stream draws from SFC64 in place of Philox, so every digest
# changed.
# 5: normal-equation blocks are a power of two of rows, so they divide
# the 16 384-row chunk.  Up to 16 columns (and at 32 and 64) the blocks,
# and so the digests, are those of version 4; the wide config pins what
# version 5 changed.
NUMERICS_VERSION = 5

SYNTHETIC_CFG = (
    "methods = ols, dgm, rmgm, bgm\n"
    "n_grid = 2000\n"
    "eps_grid = 1.0, 0.1\n"
    "seeds = 5\n"
    "root_seed = 7\n"
)
SYNTHETIC_DIGEST = "a1ffb0fcb4ab4bedc61287a764c35e5c4fd5e01280e51d33a0e2780cc5949a13"
SYNTHETIC_AGGREGATES_DIGEST = "bb4c2e1431048e8395e222cd8035de7399febfbe19ea17f38de81fad096eb936"

REAL_CFG = (
    f"csv_path = {FIXTURE}\n"
    "label_column = expenses\n"
    "eps_grid = 1.0\n"
    "k_grid = 10, 30\n"
    "seeds = 3\n"
    "m = 3\n"
)
REAL_DIGEST = "7ee412902c0827975067fcb3aa030390c119322206ab637f517adeaece581879"
REAL_AGGREGATES_DIGEST = "ff8682cf5f56769bcb47007a04086bf7dace4c733a138136d366093af43619b8"
REAL_BEST_K_DIGEST = "dd92a1f1be4c1addb34b07bb84e7ceb363a1a96f03d22698bf3a38e28d1462bb"

# n = 20 011 rows of 11 columns: three row blocks (8192, 8192, 3627) for
# the normal equations and two sketch column chunks (16 384, 3627)
CHUNKED_CFG = (
    "n_grid = 20011\n"
    "eps_grid = 1.0, 0.1\n"
    "seeds = 2\n"
    "root_seed = 7\n"
)
CHUNKED_DIGEST = "6ac90df27bbb69396d13e1cb30e30d71aa834750e9d2a653e7de4d51a40d7714"
CHUNKED_AGGREGATES_DIGEST = "6d57473321ee41e83685aaf5118466b0f71eab65553dc1cd6004097c1e285024"

# d + 1 = 41 columns: normal-equation blocks of 2048 rows (3196 in
# version 4, when a block straddled two chunks)
WIDE_CFG = (
    "d = 40\n"
    "m = 3\n"
    "n_grid = 20011\n"
    "eps_grid = 1.0, 0.1\n"
    "seeds = 2\n"
    "root_seed = 7\n"
)
WIDE_DIGEST = "8ddd4d24df662e69743abb94699a28fbf079b3c8c9ce2e73358d89b2105ca3ed"
WIDE_AGGREGATES_DIGEST = "bdc07a4446bff801d6228146ba62ab29d3298b638b45764a19b1dbd11fe731ba"

# name -> (command, config)
CONFIGS = {
    "synthetic": ("synthetic", SYNTHETIC_CFG),
    "real": ("real", REAL_CFG),
    "chunked": ("synthetic", CHUNKED_CFG),
    "wide": ("synthetic", WIDE_CFG),
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
    [
        ("synthetic", SYNTHETIC_DIGEST),
        ("real", REAL_DIGEST),
        ("chunked", CHUNKED_DIGEST),
        ("wide", WIDE_DIGEST),
    ],
    ids=["synthetic", "real", "chunked", "wide"],
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
        ("wide", WIDE_AGGREGATES_DIGEST),
    ],
    ids=["synthetic", "real", "chunked", "wide"],
)
def test_aggregates_csv_digest(run_outputs, name, digest):
    assert _sha256(run_outputs(name) / "aggregates.csv") == digest


def test_best_k_csv_digest(run_outputs):
    assert _sha256(run_outputs("real") / "best_k.csv") == REAL_BEST_K_DIGEST
