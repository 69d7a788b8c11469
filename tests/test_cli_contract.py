"""The exit-code contract under generated input: malformed CSVs (blank or
BOM-prefixed headers and columns whose range overflows included), config
files, flag combinations, budgets down to the smallest float or none at
all, and an --out at or under a file must end in 0 (ok), 2 (config or
input error) or 3 (singular under --strict), never in an escaped
exception."""

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from mpdp.cli import main

NUMBERS = ("0", "1", "0.25", "-3", "7", "1e3", " 2 ")
BAD_CELLS = ("nan", "inf", "", "x", "1e999", "y")
GOOD_CONFIG = (
    "d = 3", "k_grid = 2, 3", "k_grid = 2 3", "k_mode = rate", "betas = 0.5", "lambda = 1e-4",
    "methods = ols,", "n_grid = 12 20",
)
BAD_CONFIG = (
    "m = 1", "k_grid = 0", "k_grid =", "eps_grid =", "delta = 2", "lambda = -1", "lambda = inf",
    "n_grid = x", "label_column = zz", "bogus = 1", "no equals sign",
)


def _pick(good, bad=()):
    """Each good value five times as likely as each bad one."""
    return st.sampled_from((*good * 5, *bad))


def _flag(flag, good, bad=()):
    """The flag left out, or given a good or (now and then) a bad value."""
    return st.one_of(st.just([]), _pick(good, bad).map(lambda v: [flag, v]))


@st.composite
def csv_texts(draw):
    """A numeric table (label last), now and then behind a byte-order mark or
    under a blank header, with either up to two cells spoiled, dropped or
    added or (one time in three) a first column of alternating +-1e308,
    whose range overflows."""
    cols = draw(st.integers(1, 5))
    header = draw(_pick(("plain",), ("bom", "blank")))
    table = [[] if header == "blank" else [f"c{j}" for j in range(cols - 1)] + ["y"]]
    table += draw(st.lists(
        st.lists(st.sampled_from(NUMBERS), min_size=cols, max_size=cols), min_size=3, max_size=8
    ))
    if draw(st.sampled_from(("cells", "cells", "huge"))) == "huge":
        for i, row in enumerate(table[1:]):
            row[0] = ("1e308", "-1e308")[i % 2]
    else:
        for _ in range(draw(st.integers(0, 2))):
            row = table[draw(st.integers(0, len(table) - 1))]
            action = draw(st.sampled_from(("spoil", "drop", "add")))
            if action == "spoil" and row:
                row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_CELLS))
            elif action == "drop":
                del row[-1:]
            else:
                row.append(draw(st.sampled_from(NUMBERS)))
    return ("\ufeff" if header == "bom" else "") + "\n".join(",".join(r) for r in table) + "\n"


@st.composite
def invocations(draw):
    """(argv with {csv} and {tmp} placeholders, CSV text, config lines or
    None); {tmp}/afile is an existing file."""
    if draw(st.booleans()):
        args = ["real", "--csv", "{csv}", "--parties", draw(_pick(("2", "3"), ("0", "9")))]
        args += draw(_flag("--label-column", ("c0", "y"), ("zz",)))
        args += draw(_flag("--k-mode", ("synthetic", "grid", "rate"), ("bogus",)))
    else:  # always a small n grid: the default runs n up to 3e5
        n_grid = draw(_pick(("5", "12,20", "12 20", "5,"), ("0", "x", "")))
        args = ["synthetic", "--n-grid", n_grid]
    eps_good = ("1.0", "0.5,1", "0.5 1", "1.0,", "1e-153")  # 1e-153: finite sigma^2, huge Gram
    eps_bad = ("0", "2", "abc", "1,,1", "nan", "1e-300", "1e-320", "5e-324")
    eps_flag = _flag("--eps-grid", eps_good, eps_bad)
    args += draw(st.one_of(eps_flag, eps_flag, st.just(["--eps-grid", ","])))  # 1 in 3 empty
    args += draw(_flag("--methods", ("ols", "ols,rmgm", "dgm,bgm", "ols,"), ("svm", "")))
    args += ["--seeds", draw(_pick(("1", "2"), ("0",)))]  # the default 200 would be slow
    args += draw(_flag("--workers", ("1", "2"), ("0",)))
    args += draw(_flag("--lambda", ("0", "1e-5"), ("-1", "nan", "inf")))
    args += draw(st.sampled_from(([], ["--strict"])))
    args += ["--out", os.path.join("{tmp}", draw(st.sampled_from(("out", "afile", "afile/sub"))))]
    config = draw(st.one_of(st.none(), st.lists(_pick(GOOD_CONFIG, BAD_CONFIG), max_size=3)))
    return args, draw(csv_texts()), config


def _exit_code(argv):
    """main's return value; argparse's usage errors exit through SystemExit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_exit_code_is_0_2_or_3(invocation):
    args, csv_text, config = invocation
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "data.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        with open(os.path.join(tmp, "afile"), "w", encoding="utf-8") as fh:
            fh.write("not a directory\n")
        argv = [a.replace("{csv}", csv_path).replace("{tmp}", tmp) for a in args]
        if config is not None:
            config_path = os.path.join(tmp, "run.cfg")
            with open(config_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(config) + "\n")
            argv += ["--config", config_path]
        assert _exit_code(argv) in (0, 2, 3)
