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
# rows, and best_k.csv, are those of version 6
# (``test_only_dgm_and_bgm_rows_left_version_6``).  X'X of more than 64
# feature columns became a sum of panel products; no config here is that
# wide.
NUMERICS_VERSION = 7

SYNTHETIC_CFG = (
    "methods = ols, dgm, rmgm, bgm\n"
    "n_grid = 2000\n"
    "eps_grid = 1.0, 0.1\n"
    "seeds = 5\n"
    "root_seed = 7\n"
)
SYNTHETIC_DIGEST = "85ca793b06638f1e779e48f4b40bf02ba50f5d72e11570d2920aeebb47cf19de"
SYNTHETIC_AGGREGATES_DIGEST = "1d53d953d8c77d5b86cace63ac24387f8dccf4a8966a391c4e5bac5ddf0016eb"

REAL_CFG = (
    f"csv_path = {FIXTURE}\n"
    "label_column = expenses\n"
    "eps_grid = 1.0\n"
    "k_grid = 10, 30\n"
    "seeds = 3\n"
    "m = 3\n"
)
REAL_DIGEST = "d370d44d0b23ebd162e7ac161206cde64f98d1aa420b98da4b0955aa77d89969"
REAL_AGGREGATES_DIGEST = "dd6f2fbf495374f8a54180848254af7d32d69ad6f286424baedeed9ddd551ff9"
REAL_BEST_K_DIGEST = "d6c33b9b63619cab58b274bf15e75db87037c11f4941ecaec3977061ef075fe8"

# n = 20 011 rows of 11 columns: three row blocks (8192, 8192, 3627) for
# the normal equations and two sketch column chunks (16 384, 3627)
CHUNKED_CFG = (
    "n_grid = 20011\n"
    "eps_grid = 1.0, 0.1\n"
    "seeds = 2\n"
    "root_seed = 7\n"
)
CHUNKED_DIGEST = "d6815d32b1e6f5f598a48623ef40307a9c759ed1cad9d59840b15db745fe5b2b"
CHUNKED_AGGREGATES_DIGEST = "33c037873baec4d4991a32695ad6ddb555ac8914f51ba0bb6599feec6af2f245"

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
WIDE_DIGEST = "64e6bdf1227ec918749e081291d0c05e7fbd5f70f24ecb31f50d7c2a766e0f5b"
WIDE_AGGREGATES_DIGEST = "2b302df4924861f4a057835090fdec0f2ce1161be0caf84c222da8da1e82c165"

# sha256 of each config's trials.csv at version 6 without its dgm and
# bgm rows, header included, lines joined by newlines
VERSION_6_OTHER_ROWS = {
    "synthetic": "b808e3bc5197c907408605b56c5d93890a03e209714461c8103ee46701d992f7",
    "chunked": "3882d10d17c78df1f946a33e7dc2bd8c579f91138f3f26ec62c1a959c4481385",
    "wide": "c42fdcc2111dcce79eb0547802dca29338be88288d1bc0dfeb75738209573904",
    "real": "fe986d1783b4181130e8a3077578f4bfcda53afa6cd61aedb254b42bccab79cb",
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


@pytest.mark.parametrize("name", sorted(VERSION_6_OTHER_ROWS))
def test_only_dgm_and_bgm_rows_left_version_6(run_outputs, name):
    # the ols and rmgm rows come from the same data sums and sketches
    lines = (run_outputs(name) / "trials.csv").read_bytes().split(b"\n")
    other = b"\n".join(line for line in lines if not line.startswith((b"dgm,", b"bgm,")))
    assert hashlib.sha256(other).hexdigest() == VERSION_6_OTHER_ROWS[name]
