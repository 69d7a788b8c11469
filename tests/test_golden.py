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
# 6: every solve is one eigendecomposition, x = V ((V' b) / e), in place
# of eigvalsh and a symmetric LDL' solve, so every digest changed.
NUMERICS_VERSION = 6

SYNTHETIC_CFG = (
    "methods = ols, dgm, rmgm, bgm\n"
    "n_grid = 2000\n"
    "eps_grid = 1.0, 0.1\n"
    "seeds = 5\n"
    "root_seed = 7\n"
)
SYNTHETIC_DIGEST = "37c733cf477c912e53a5a12c5b08c3991d189852ff0e2714ecbcdf992c71d850"
SYNTHETIC_AGGREGATES_DIGEST = "c69efac7eb3bcbc83991b88852ef9d51443dfcd83bc6a47891de2dadbcdd8ef1"

REAL_CFG = (
    f"csv_path = {FIXTURE}\n"
    "label_column = expenses\n"
    "eps_grid = 1.0\n"
    "k_grid = 10, 30\n"
    "seeds = 3\n"
    "m = 3\n"
)
REAL_DIGEST = "a89ec53141980bbf59155618700a7dd612d21a4e4f42b611106dc583bcfc2711"
REAL_AGGREGATES_DIGEST = "964b9f43aeacbb42ce8c4304fc312a090a6ff6ae8777d32d1198e76d57c92237"
REAL_BEST_K_DIGEST = "d6c33b9b63619cab58b274bf15e75db87037c11f4941ecaec3977061ef075fe8"

# n = 20 011 rows of 11 columns: three row blocks (8192, 8192, 3627) for
# the normal equations and two sketch column chunks (16 384, 3627)
CHUNKED_CFG = (
    "n_grid = 20011\n"
    "eps_grid = 1.0, 0.1\n"
    "seeds = 2\n"
    "root_seed = 7\n"
)
CHUNKED_DIGEST = "87a4331a69419facb648ecf2b0277700e0ede30078e65d0b223131ea9d3fb99b"
CHUNKED_AGGREGATES_DIGEST = "932a315710b74ac40132b1bdfccf7600f73752ae02f5ab7f870aec63b8ed335f"

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
WIDE_DIGEST = "69a1d9dee299ca3b4c1857269b0c4d7b082d9d386a4ef443f6f8cf931a157174"
WIDE_AGGREGATES_DIGEST = "ff868211525118a6ff1de28c2d0ce07123338a07845f6807bf4ccae51c5a8cc5"

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
