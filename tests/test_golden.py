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
# 7: a trial samples each DGM release's Gram from the data's own in place
# of adding n rows of noise, so the dgm and bgm rows changed; the other
# rows, and best_k.csv, are those of version 6.  X'X of more than 64
# feature columns became a sum of panel products; no config here is that
# wide.
# 8: row r of the mixing matrix B starts at splitmix word r * 2**32, not
# r * ceil(n/64), so B_n is the first n columns of one matrix, and the
# last generated chunk draws and labels its rows up to a whole group of 4.
# The rmgm rows and best_k.csv changed; the other rows are those of
# version 7 (``test_only_rmgm_rows_left_version_7``: here the 3 rows past
# the last group of 4 at n = 20 011 kept their label bits).
NUMERICS_VERSION = 8

SYNTHETIC_CFG = (
    "methods = ols, dgm, rmgm, bgm\n"
    "n_grid = 2000\n"
    "eps_grid = 1.0, 0.1\n"
    "seeds = 5\n"
    "root_seed = 7\n"
)
SYNTHETIC_DIGEST = "da03b6e748dddae0d9776b3394180e90703ed8bc5c7f67babc052399267b6562"
SYNTHETIC_AGGREGATES_DIGEST = "d9eccf88a2705636761855c6c28ab954a77e23e8d0bea1503b9df3bc6373a8e4"

REAL_CFG = (
    f"csv_path = {FIXTURE}\n"
    "label_column = expenses\n"
    "eps_grid = 1.0\n"
    "k_grid = 10, 30\n"
    "seeds = 3\n"
    "m = 3\n"
)
REAL_DIGEST = "1ffd65347dc9b49c265fe42fb985725eee7000dc2b13a27f26ae53ac25c7fc78"
REAL_AGGREGATES_DIGEST = "93bb04d8335f634f4844c5e2216088344616ab33f495e2c425c4d81268fcfe74"
REAL_BEST_K_DIGEST = "8072d5219fd707b702f9825edb33ce6dcb5acd0164e2c080e6efe04846e04481"

# n = 20 011 rows of 11 columns: three row blocks (8192, 8192, 3627) for
# the normal equations and two sketch column chunks (16 384, 3627)
CHUNKED_CFG = (
    "n_grid = 20011\n"
    "eps_grid = 1.0, 0.1\n"
    "seeds = 2\n"
    "root_seed = 7\n"
)
CHUNKED_DIGEST = "d96f5d499d762d07549f7dd598fc42e5ed7a308a7a9c6ce1dc54b802792905be"
CHUNKED_AGGREGATES_DIGEST = "5940f828ed03b4e7eef4bb2d96f2bca303d21b5efdde6ce34e61f4248a703bbf"

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
WIDE_DIGEST = "c8df3eeb29532dbbbd7b68e1ef47ddde3d8f5c7ce56c9bf85aea381abaf49b70"
WIDE_AGGREGATES_DIGEST = "2d04a342824fa7ae9c4d59a0bddbd6abf2790cce80d15775dbf3a2a6b29c47b4"

# sha256 of each config's trials.csv at version 7 without its rmgm rows,
# header included, lines joined by newlines
VERSION_7_OTHER_ROWS = {
    "synthetic": "b877738a3e8c7d4100b825f99447f9a29027d1796294e333cb87a42045b18c42",
    "chunked": "96ab5bfcf6104117ca8675635109156f8869b8572d506663e4ebd799f66a21d9",
    "wide": "1593e33cc4e47aceda098996a4c053a3beb3df4ce5e9d327dbcd2e81c9606e3e",
    "real": "ffaef2102285bbdfb57db964933dbfb49aa988615861f44e321db6585eedeaee",
}

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


@pytest.mark.parametrize("name", sorted(VERSION_7_OTHER_ROWS))
def test_only_rmgm_rows_left_version_7(run_outputs, name):
    # the ols, dgm and bgm rows come from the same data and DGM draws
    lines = (run_outputs(name) / "trials.csv").read_bytes().split(b"\n")
    other = b"\n".join(line for line in lines if not line.startswith(b"rmgm,"))
    assert hashlib.sha256(other).hexdigest() == VERSION_7_OTHER_ROWS[name]
