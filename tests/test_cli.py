import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import mpdp
from mpdp.cli import config_from_argv, main
from mpdp.config import ConfigError, build_config, parse_config_file
from mpdp.runner import run_real, run_synthetic, write_outputs

from test_golden import WIDE_CFG

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(mpdp.__file__)))
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "insurance_sample.csv")


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# (command, flag, the config line it stands for): each pair must build
# the same RunConfig
FLAG_CASES = [
    ("synthetic", ["--n-grid", "1000 2000"], "n_grid = 1000 2000"),
    ("synthetic", ["--eps-grid", "1.0 0.5"], "eps_grid = 1.0 0.5"),
    ("synthetic", ["--methods", "ols,"], "methods = ols,"),
    ("synthetic", ["--n-grid", "1000, 2000"], "n_grid = 1000, 2000"),
    ("synthetic", ["--seeds", "7"], "seeds = 7"),
    ("synthetic", ["--lambda", "1e-4"], "lambda = 1e-4"),
    ("synthetic", ["--root-seed", "42"], "root_seed = 42"),
    ("synthetic", ["--workers", "2"], "workers = 2"),
    ("synthetic", ["--strict"], "strict = true"),
    ("real", ["--parties", "3"], "m = 3"),
    ("real", ["--k-mode", "rate"], "k_mode = rate"),
    ("real", ["--label-column", "expenses"], "label_column = expenses"),
]


class TestConfig:
    def test_file_parsing_with_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "methods = ols, rmgm\n"
            "n_grid = 1000, 2000\n"
            "eps_grid = 1.0\n"
            "seeds = 4\n"
            "lambda = 1e-4\n"
        )
        values = parse_config_file(str(path))
        cfg = build_config(values, {"seeds": 2})
        assert cfg.methods == ("ols", "rmgm")
        assert cfg.n_grid == (1000, 2000)
        assert cfg.seeds == 2  # flag wins over file
        assert cfg.lam == 1e-4

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfseeds = 3\n")
        assert parse_config_file(str(path)) == {"seeds": 3}

    def test_non_utf8_file_exits_2_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"seeds = 2\n\xff\xfe bad\n")
        args = ["synthetic", "--config", str(path), "--n-grid", "100", "--out", str(tmp_path / "o")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(path) in err and "decode" in err
        assert not (tmp_path / "o").exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("not_a_key = 3\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))

    def test_hash_inside_a_value_is_part_of_it(self, tmp_path):
        # only a line whose first non-blank character is '#' is a comment,
        # so a value keeps the same text as its flag
        out = tmp_path / "res#2"
        path = tmp_path / "run.cfg"
        path.write_text(f"  # the output directory\nout_dir = {out}\n")
        args = ["synthetic", "--config", str(path), "--n-grid", "100", "--eps-grid", "1.0",
                "--methods", "ols", "--seeds", "1"]
        assert main(args) == 0
        assert (out / "trials.csv").is_file()
        assert not (tmp_path / "res").exists()

    def test_trailing_comment_is_part_of_the_value(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seeds = 3 # three\n")
        assert main(["synthetic", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"{path}:1: bad value for 'seeds'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_key_set_twice_exits_2_naming_both_lines(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seeds = 3\n# more seeds\nSeeds = 4\n")
        assert main(["synthetic", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"{path}:3: key 'seeds' is already set on line 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            build_config({}, {"eps_grid": (2.0,)})
        with pytest.raises(ConfigError):
            build_config({}, {"methods": ("svm",)})
        with pytest.raises(ConfigError):
            build_config({}, {"m": 12, "d": 10})
        with pytest.raises(ConfigError, match="eps_grid must not be empty"):
            build_config({}, {"eps_grid": ()})
        with pytest.raises(ConfigError, match="delta"):
            build_config({}, {"delta": 1.0})
        # a repeated entry would run its trials twice, or pool two releases
        # of the same data under one epsilon; two betas whose tail_prob_
        # columns print alike, or a NaN beta, would write duplicate columns
        nan = float("nan")
        for key, values, message in (
            ("methods", ("ols", "dgm", "ols"), "methods repeats an entry"),
            ("n_grid", (20, 20), "n_grid repeats an entry"),
            ("eps_grid", (1.0, 1.0), "eps_grid repeats an entry"),
            ("betas", (0.1, 0.1), "betas repeats an entry"),
            ("betas", (0.1000001, 0.1000002), "betas repeats .* column tail_prob_0.1$"),
            ("betas", (0.1, nan, nan), "betas must be finite"),
            ("betas", (float("inf"),), "betas must be finite"),
            ("k_grid", (10, 30, 10), "k_grid repeats an entry"),
        ):
            with pytest.raises(ConfigError, match=message):
                build_config({}, {key: values})

    @pytest.mark.parametrize("eps", ["1e-300", "1e-320", "5e-324"])
    @pytest.mark.parametrize("argv", [
        ["synthetic", "--n-grid", "50"],
        ["synthetic", "--n-grid", "50", "--strict"],
        ["real", "--csv", FIXTURE, "--k-mode", "rate"],
    ], ids=["synthetic", "synthetic-strict", "real-rate"])
    def test_eps_whose_noise_variance_overflows_exits_2(self, tmp_path, capsys, argv, eps):
        out = tmp_path / "res"
        assert main(argv + ["--seeds", "1", "--eps-grid", eps, "--out", str(out)]) == 2
        assert "noise variance overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_full_flag_expands_grid(self, tmp_path):
        # --full is a preset below the config file, which is below the flags
        _, cfg = config_from_argv(["synthetic", "--full"])
        assert cfg.n_grid == (10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000)
        assert cfg.seeds == 1000
        path = tmp_path / "run.cfg"
        path.write_text("n_grid = 2000\nseeds = 20\n")
        _, cfg = config_from_argv(["synthetic", "--full", "--config", str(path)])
        assert (cfg.n_grid, cfg.seeds) == ((2000,), 20)
        _, cfg = config_from_argv(["synthetic", "--full", "--config", str(path), "--seeds", "3"])
        assert (cfg.n_grid, cfg.seeds) == ((2000,), 3)

    @pytest.mark.parametrize(
        "argv, warns",
        [(["--full"], True), (["--full", "--n-grid", "1000", "--seeds", "2"], False)],
        ids=["full", "full_replaced_by_flags"],
    )
    def test_hours_warning_follows_built_config(self, capsys, argv, warns):
        config_from_argv(["synthetic", *argv])
        assert ("expect hours" in capsys.readouterr().err) == warns

    @pytest.mark.parametrize(
        "command, flag, line", FLAG_CASES, ids=[line for _, _, line in FLAG_CASES]
    )
    def test_flag_and_config_line_build_the_same_config(self, tmp_path, command, flag, line):
        # a flag takes the same text as its config-file key
        base = ["--csv", FIXTURE] if command == "real" else []
        _, from_flag = config_from_argv([command, *base, *flag])
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        _, from_file = config_from_argv([command, *base, "--config", str(path)])
        assert from_flag == from_file
        assert from_flag != config_from_argv([command, *base])[1]

    def test_real_protocol_defaults_to_k_grid(self, tmp_path):
        assert config_from_argv(["synthetic"])[1].k_mode == "synthetic"
        assert config_from_argv(["real", "--csv", FIXTURE])[1].k_mode == "grid"
        path = tmp_path / "run.cfg"
        path.write_text("k_mode = rate\n")
        _, cfg = config_from_argv(["real", "--csv", FIXTURE, "--config", str(path)])
        assert cfg.k_mode == "rate"


class TestSyntheticCommand:
    def test_minimal_run_row_counts(self, tmp_path):
        out = tmp_path / "res"
        code = main(
            [
                "synthetic",
                "--n-grid", "1000",
                "--eps-grid", "1.0",
                "--methods", "ols",
                "--seeds", "3",
                "--root-seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        trials = (out / "trials.csv").read_text().strip().split("\n")
        aggregates = (out / "aggregates.csv").read_text().strip().split("\n")
        assert len(trials) == 1 + 3
        assert len(aggregates) == 1 + 1

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "synthetic",
            "--n-grid", "500,1000",
            "--eps-grid", "1.0,0.3",
            "--seeds", "3",
            "--root-seed", "99",
        ]
        for out in ("a", "b"):
            assert main(args + ["--out", str(tmp_path / out)]) == 0
        assert read(tmp_path / "a" / "trials.csv") == read(tmp_path / "b" / "trials.csv")
        assert read(tmp_path / "a" / "aggregates.csv") == read(tmp_path / "b" / "aggregates.csv")
        # run_meta echoes the config; everything but the output paths and
        # the measured wall time and peak RSS matches
        meta = [
            sorted(
                line
                for line in read(tmp_path / name / "run_meta").decode().splitlines()
                if not line.startswith(("config_out_dir", "wall_s", "peak_rss_mb"))
            )
            for name in ("a", "b")
        ]
        assert meta[0] == meta[1]

    @pytest.mark.parametrize("base, workers", [
        (["synthetic", "--n-grid", "800"], 3),
        (["real", "--csv", FIXTURE, "--label-column", "expenses", "--parties", "5"], 2),
    ], ids=["synthetic", "real"])
    def test_workers_do_not_change_output(self, tmp_path, base, workers):
        base = base + ["--eps-grid", "1.0", "--seeds", "4", "--root-seed", "5"]
        assert main(base + ["--out", str(tmp_path / "w1"), "--workers", "1"]) == 0
        assert main(base + ["--out", str(tmp_path / "wn"), "--workers", str(workers)]) == 0
        assert read(tmp_path / "w1" / "trials.csv") == read(tmp_path / "wn" / "trials.csv")

    @pytest.mark.parametrize("args, tasks", [
        (["synthetic", "--n-grid", "300,200", "--seeds", "3"],
         [(n, seed) for n in (300, 200) for seed in range(3)]),
        (["real", "--csv", FIXTURE, "--label-column", "expenses", "--parties", "5",
          "--seeds", "3"], [(80, seed) for seed in range(3)]),  # 80 training rows
    ], ids=["synthetic", "real"])
    def test_timings_have_one_row_per_task_in_task_order(self, tmp_path, args, tasks):
        out = tmp_path / "res"
        assert main(args + ["--eps-grid", "1.0", "--workers", "1", "--out", str(out)]) == 0
        header, *rows = (out / "timings.csv").read_text().strip().split("\n")
        assert header == "n,seed,wall_time"
        cells = [row.split(",") for row in rows]
        assert [(int(n), int(seed)) for n, seed, _ in cells] == tasks
        meta = dict(line.split(" = ", 1) for line in (out / "run_meta").read_text().splitlines())
        # the tasks ran one after another inside the run; wall_s is rounded to 3 decimals
        assert sum(float(seconds) for _, _, seconds in cells) <= float(meta["wall_s"]) + 5e-4

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("methods = quantum\n")
        assert main(["synthetic", "--config", str(bad)]) == 2

    def test_run_meta_records_settings(self, tmp_path):
        out = tmp_path / "res"
        main(
            [
                "synthetic",
                "--n-grid", "500",
                "--eps-grid", "1.0",
                "--methods", "ols",
                "--seeds", "1",
                "--root-seed", "3",
                "--out", str(out),
            ]
        )
        meta = (out / "run_meta").read_text()
        assert "root_seed = 3" in meta
        assert "artifact_version" in meta
        assert "numerics_version" in meta

    def test_run_meta_records_cost_and_software(self, tmp_path):
        out = tmp_path / "res"
        args = ["synthetic", "--n-grid", "500", "--eps-grid", "1.0", "--methods", "ols",
                "--seeds", "1", "--out", str(out)]
        assert main(args) == 0
        meta = dict(
            line.split(" = ", 1) for line in (out / "run_meta").read_text().splitlines()
        )
        assert float(meta["wall_s"]) >= 0
        assert float(meta["peak_rss_mb"]) > 0
        assert meta["numpy_version"] == np.__version__
        assert meta["bit_generator"] == "SFC64"
        assert meta["dgm_gram"].startswith("sampled from the data's Gram")
        assert meta["python_version"]
        assert "scipy_version" not in meta
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            assert meta[var] == os.environ.get(var, "unset")


def test_package_does_not_import_scipy():
    # in a fresh interpreter: pytest's own process has scipy loaded
    code = ("import json, sys, mpdp, mpdp.cli; print(json.dumps(sorted("
            "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC_DIR),
        capture_output=True, text=True, timeout=600, check=True,
    )
    assert json.loads(proc.stdout) == []


@pytest.fixture(scope="module")
def chunk_crossing_runs(tmp_path_factory):
    """trials.csv bytes of one n = 70 001 synthetic run per (workers, BLAS
    threads).  That n crosses the sketch's 16 384-column chunks and the row
    chunks of generation, bounds check, noise and the normal equations;
    two workers overlap inside BLAS, and two OpenBLAS threads may split
    its calls."""
    args = ["--n-grid", "70001", "--eps-grid", "1.0", "--seeds", "2", "--root-seed", "8"]
    runs = {}
    for workers, threads in ((1, 1), (2, 1), (1, 2)):
        out = tmp_path_factory.mktemp(f"w{workers}t{threads}")
        runs[workers, threads] = run_in_child(
            [*args, "--workers", str(workers)], threads, out
        )
    assert runs[1, 1].count(b"\n") == 1 + 2 * 4  # header, 2 seeds x 4 methods
    return runs


def run_in_child(args, threads, out, command="synthetic", output="trials.csv"):
    """``output``'s bytes after one ``mpdp command`` run under ``threads``
    BLAS threads."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    subprocess.run(
        [sys.executable, "-m", "mpdp", command, *args, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    return read(out / output)


class TestChunkCrossingInvariance:
    def test_workers_do_not_change_output(self, chunk_crossing_runs):
        assert chunk_crossing_runs[2, 1] == chunk_crossing_runs[1, 1]

    def test_blas_threads_do_not_change_the_rmgm_rows(self, chunk_crossing_runs):
        def rmgm_rows(text):
            return [line for line in text.split(b"\n") if line.startswith(b"rmgm,")]

        rows = rmgm_rows(chunk_crossing_runs[1, 1])
        assert len(rows) == 2
        assert rmgm_rows(chunk_crossing_runs[1, 2]) == rows

    def test_blas_threads_do_not_change_output(self, chunk_crossing_runs):
        assert chunk_crossing_runs[1, 2] == chunk_crossing_runs[1, 1]

    def test_blas_threads_do_not_change_two_column_trainers(self, tmp_path):
        # d = 1 trains on 2-column matrices, whose per-block products
        # OpenBLAS splits across two threads at 16 384 rows (and at the
        # 65 536 rows of a 1 MiB block) but not at 8192
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d = 1\nm = 2\n")
        args = ["--config", str(cfg), "--n-grid", "200000", "--seeds", "3",
                "--methods", "ols,dgm,bgm"]
        one, two = (run_in_child(args, threads, tmp_path / f"t{threads}") for threads in (1, 2))
        assert one.count(b"\n") == 1 + 3 * (1 + 2 * 3)  # 3 seeds x (ols + 3 eps x 2)
        assert two == one

    def test_blas_threads_do_not_change_wide_labels(self, tmp_path):
        # d = 40: one label product over all 16 387 rows rounded 2 of them
        # differently under two OpenBLAS threads; per 8192-row block they
        # keep their bits
        args = ["--d", "40", "--n", "16387", "--root-seed", "8"]
        one, two = (run_in_child(args, threads, tmp_path / f"t{threads}", "export", "synthetic.csv")
                    for threads in (1, 2))
        assert one.count(b"\n") == 1 + 16_387
        assert two == one

    def test_blas_threads_do_not_change_wide_trainers(self, tmp_path):
        # the wide golden config: 41 columns, whose normal equations are
        # summed over 2048-row blocks of two 16 384-row chunks
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WIDE_CFG)
        one, two = (run_in_child(["--config", str(cfg)], threads, tmp_path / f"t{threads}")
                    for threads in (1, 2))
        assert one.count(b"\n") == 1 + 2 * (1 + 3 * 2)  # 2 seeds x (ols + 2 eps x 3)
        assert two == one

    @pytest.mark.parametrize("d", [120, 200])
    def test_blas_threads_do_not_change_trainers_wider_than_a_panel(self, tmp_path, d):
        # X'X of more than 64 feature columns, and the DGM Gram sampled
        # at d + 1 columns, are sums of 64-column panel products: one
        # product over 97 or more columns is threaded whatever its rows
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"d = {d}\nm = 3\nmethods = ols, dgm, bgm\nn_grid = 1500, 9001\n"
                       "eps_grid = 1.0, 0.1\nseeds = 2\nroot_seed = 7\n")
        one, two = (run_in_child(["--config", str(cfg)], threads, tmp_path / f"t{threads}")
                    for threads in (1, 2))
        assert one.count(b"\n") == 1 + 2 * 2 * (1 + 2 * 2)  # 2 n x 2 seeds x (ols + 2 eps x 2)
        assert two == one


class TestRealCommand:
    def test_fixture_smoke_run(self, tmp_path):
        out = tmp_path / "res"
        code = main(
            [
                "real",
                "--csv", FIXTURE,
                "--label-column", "expenses",
                "--parties", "5",
                "--eps-grid", "1.0",
                "--seeds", "2",
                "--root-seed", "11",
                "--out", str(out),
            ]
        )
        assert code == 0
        trials = (out / "trials.csv").read_text().strip().split("\n")
        # 2 seeds x (1 ols + 1 dgm + 1 bgm + 5 rmgm grid points)
        assert len(trials) == 1 + 2 * 8
        best = (out / "best_k.csv").read_text().strip().split("\n")
        assert best[0] == "epsilon,best_k,mean_test_mse"
        assert len(best) == 2
        meta = (out / "run_meta").read_text()
        assert "dataset_rows_total = 100" in meta
        assert "dataset_rows_train = 80" in meta

    def test_best_k_mean_equals_aggregate_mean(self, tmp_path):
        # best_k.csv must carry the exact epsilon text and mean_distance
        # of the matching rmgm row in aggregates.csv (with these seeds a
        # plain sum/len mean differs from fmean in the last digits, and
        # 0.1234567 has more than the 6 digits of a "%g" epsilon)
        out = tmp_path / "res"
        args = ["real", "--csv", FIXTURE, "--label-column", "expenses",
                "--eps-grid", "1.0,0.5,0.1,0.1234567", "--seeds", "7", "--out", str(out)]
        with pytest.warns(UserWarning, match="k="):
            assert main(args) == 0
        header, *rows = (out / "aggregates.csv").read_text().strip().split("\n")
        columns = header.split(",")
        means = {}
        for row in rows:
            cell = dict(zip(columns, row.split(",")))
            if cell["method"] == "rmgm":
                means[(cell["epsilon"], int(cell["k"]))] = cell["mean_distance"]
        best = (out / "best_k.csv").read_text().strip().split("\n")[1:]
        assert len(best) == 4
        for row in best:
            eps, k, mean = row.split(",")
            assert mean == means[(eps, int(k))]
            assert float(mean) == min(float(v) for (e, _), v in means.items() if e == eps)

    def test_k_rows_do_not_depend_on_the_rest_of_the_grid(self, tmp_path):
        # every release is a prefix of one sketch at the trial's largest
        # k, so adding k = 1001 to the grid leaves the k = 30 rows as they are
        rows = []
        for grid in ("30", "30, 1001"):
            work = tmp_path / f"grid{len(rows)}"
            work.mkdir()
            (work / "run.cfg").write_text(f"k_grid = {grid}\n")
            args = ["real", "--csv", FIXTURE, "--label-column", "expenses", "--seeds", "3",
                    "--eps-grid", "1.0,0.5", "--config", str(work / "run.cfg"),
                    "--out", str(work / "res")]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # k = 1001 is not small next to n = 80
                assert main(args) == 0
            header, *lines = (work / "res" / "trials.csv").read_text().splitlines()
            k_col = header.split(",").index("k")
            rows.append([line for line in lines if line.split(",")[k_col] == "30"])
        assert len(rows[0]) == 3 * 2
        assert rows[0] == rows[1]

    def test_fewer_training_rows_than_columns(self, tmp_path):
        # 5 rows of 13 features: the 4:1 split trains on 4 rows of 14
        # columns, so the data's Gram has rank 4 and the DGM Gram is
        # sampled from 4 rows of its root, with no Wishart part
        path = tmp_path / "tiny.csv"
        values = np.random.default_rng(1).uniform(0, 10, size=(5, 14))
        lines = [",".join(f"c{j}" for j in range(14))]
        lines += [",".join(format(v, ".6f") for v in row) for row in values]
        path.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"csv_path = {path}\nk_grid = 2, 3\neps_grid = 1.0, 0.1\nseeds = 3\n")
        out = tmp_path / "res"
        proc = subprocess.run(
            [sys.executable, "-m", "mpdp", "real", "--config", str(cfg), "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=SRC_DIR), capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        header, *rows = (out / "trials.csv").read_text().splitlines()
        cells = [dict(zip(header.split(","), row.split(","))) for row in rows]
        dgm = [c for c in cells if c["method"] in ("dgm", "bgm")]
        assert len(dgm) == 3 * 2 * 2 and {c["n"] for c in dgm} == {"4"}
        for c in dgm:
            assert c["status"] == "singular" or np.isfinite(float(c["test_mse"]))

    def test_parties_checked_against_csv_columns_not_synthetic_d(self, tmp_path):
        # 20 columns: more than the synthetic default d + 1 = 11
        path = tmp_path / "wide.csv"
        values = np.random.default_rng(0).uniform(0, 1, size=(50, 20))
        lines = [",".join(f"c{j}" for j in range(20))]
        lines += [",".join(format(v, ".6f") for v in row) for row in values]
        path.write_text("\n".join(lines) + "\n")
        args = ["real", "--csv", str(path), "--seeds", "1", "--eps-grid", "1.0"]
        assert main(args + ["--parties", "12", "--out", str(tmp_path / "ok")]) == 0
        assert main(args + ["--parties", "22", "--out", str(tmp_path / "bad")]) == 2

    def test_missing_csv_is_config_error(self):
        assert main(["real", "--seeds", "1"]) == 2

    def test_parse_error_reports_position_and_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,x\n")
        assert main(["real", "--csv", str(bad), "--seeds", "1"]) == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "column 2" in err

    @pytest.mark.parametrize(
        "csv_text, extra, where",
        [
            (None, ["--label-column", "expenses", "--parties", "11"], None),
            ("a,b,c\n1,2,3\n4,nan,6\n7,8,9\n1,1,1\n2,2,2\n", [], "row 3, column 2"),
            ("a,b,c\n1,2,3\n4,5,6\n7,8,9\n1,1,-inf\n2,2,2\n", [], "row 5, column 3"),
            ("a,b,c\n1,2,3\n4,5,6\n7,8,9\n1,1,1\n", [], None),
            ("a,b\n1,2\n\xff,3\n", [], None),
            ("", [], None),
            ("\n\n\n", [], "row 1"),
            ("\n1,2\n3,4\n5,6\n7,8\n9,9\n", [], "row 1"),
            ("a,b\n1e308,1\n-1e308,2\n1e308,3\n-1e308,4\n1e308,5\n-1e308,6\n", ["--parties", "2"],
             "column 1"),
            ("a,b\n" + "1" * 131_073 + ",2\n3,4\n", [], "row 2"),
            # the quoted newline makes record 3 the file's fourth line
            ('a,b\n"1\n",3\n4,' + "1" * 131_073 + "\n", [], "row 3"),
            ('a,b\n"1\n",3\n4,x\n', [], "row 3, column 2"),
            ("a,a,c\n1,2,3\n4,5,6\n7,8,9\n1,1,1\n2,2,2\n", ["--label-column", "a"], "column 2"),
        ],
        ids=[
            "more-parties-than-csv-columns",
            "nan-cell",
            "inf-cell",
            "four-rows",
            "not-utf8",
            "missing-file",
            "blank-lines-only",
            "blank-header",
            "range-overflows",
            "cell-over-field-limit",
            "cell-over-field-limit-after-quoted-newline",
            "non-numeric-after-quoted-newline",
            "label-column-named-twice",
        ],
    )
    def test_bad_input_exits_2_without_traceback(self, tmp_path, capsys, csv_text, extra, where):
        # csv_text None runs the bundled fixture; "" names a file never written
        path = FIXTURE if csv_text is None else tmp_path / "bad.csv"
        if csv_text:
            path.write_bytes(csv_text.encode("latin-1"))
        args = ["real", "--csv", str(path), "--seeds", "1", "--out", str(tmp_path / "res")]
        assert main(args + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        if where is not None:
            assert where in err
        assert not (tmp_path / "res").exists()

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        # spreadsheet exports start UTF-8 files with a BOM
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfx,y\n1,2\n3,4\n5,6\n7,8\n9,9\n1,1\n")
        args = ["real", "--csv", str(path), "--seeds", "1", "--parties", "2", "--methods", "ols",
                "--label-column", "x", "--out", str(tmp_path / "res")]
        assert main(args) == 0
        assert (tmp_path / "res" / "trials.csv").exists()


COMMANDS = [
    ["synthetic", "--n-grid", "20", "--seeds", "1"],
    ["real", "--csv", FIXTURE, "--seeds", "1"],
    ["export", "--n", "20"],
]


@pytest.fixture
def no_trials(monkeypatch):
    """Make running a trial or generating a dataset fail the test."""
    import mpdp.runner as runner_module

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    for name in ("_synthetic_trial", "_real_trial", "gen_chunks"):
        monkeypatch.setattr(runner_module, name, no_trial)


@pytest.mark.parametrize("command", COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("out", ["afile", os.path.join("afile", "sub")], ids=["at", "under"])
def test_out_at_or_under_a_file_exits_2_before_any_trial(
    tmp_path, capsys, no_trials, command, out
):
    (tmp_path / "afile").write_text("keep\n")
    assert main(command + ["--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["afile"]
    assert (tmp_path / "afile").read_text() == "keep\n"


@pytest.mark.parametrize("command, name", [
    (COMMANDS[0], "trials.csv"), (COMMANDS[1], "best_k.csv"), (COMMANDS[2], "synthetic_wstar.csv"),
], ids=["synthetic", "real", "export"])
def test_output_name_taken_by_a_directory_exits_2_before_any_trial(
    tmp_path, capsys, no_trials, command, name
):
    (tmp_path / "res" / name).mkdir(parents=True)
    assert main(command + ["--out", str(tmp_path / "res")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "Traceback" not in err
    assert os.listdir(tmp_path / "res") == [name]


def make_unopenable(path, kind):
    """A symlink at ``path`` that no open can follow: dangling (into a
    missing directory, so it fails as root too) or a loop."""
    os.symlink(path.parent / "missing" / "target" if kind == "dangling" else path, path)


@pytest.mark.parametrize("kind", ["dangling", "loop"])
@pytest.mark.parametrize("command, name", [
    (COMMANDS[0], "trials.csv"), (COMMANDS[0], "run_meta"), (COMMANDS[1], "run_meta"),
    (COMMANDS[2], "synthetic.csv"),
], ids=["synthetic-trials", "synthetic-meta", "real", "export"])
def test_output_name_taken_by_an_unopenable_symlink_exits_2_before_any_trial(
    tmp_path, capsys, no_trials, command, name, kind
):
    make_unopenable(tmp_path / name, kind)
    assert main(command + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "Traceback" not in err
    assert os.listdir(tmp_path) == [name]


@pytest.mark.parametrize("command, name", [
    (COMMANDS[0], "aggregates.csv"), (COMMANDS[1], "best_k.csv"),
    (COMMANDS[2], "synthetic_wstar.csv"),
], ids=["synthetic", "real", "export"])
def test_output_that_cannot_be_written_exits_2_naming_it(
    tmp_path, capsys, monkeypatch, command, name
):
    # past the up-front check (switched off here), the OSError of the
    # write itself is an exit 2 that names the file, not a traceback
    import mpdp.cli as cli_module

    monkeypatch.setattr(cli_module, "_check_out_dir", lambda out_dir, command: None)
    make_unopenable(tmp_path / name, "loop")
    assert main(command + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and str(tmp_path / name) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_root_seed_beyond_u64_exits_2_before_any_trial(tmp_path, capsys, no_trials, source):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"root_seed = {2**64}\n")
    args = ["--root-seed", str(2**64)] if source == "flag" else ["--config", str(cfg)]
    assert main(COMMANDS[0] + args + ["--out", str(tmp_path / "res")]) == 2
    assert "root seed must be in [0, 2**64)" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()
    assert build_config({}, {"root_seed": 2**64 - 1}).root_seed == 2**64 - 1


class TestExportCommand:
    def test_export_files_and_sidecar(self, tmp_path):
        out = tmp_path / "exp"
        assert main(["export", "--d", "3", "--n", "10", "--root-seed", "21",
                     "--out", str(out)]) == 0
        data = (out / "synthetic.csv").read_text().strip().split("\n")
        assert len(data) == 1 + 10
        assert data[0] == "x1,x2,x3,y"
        wstar = (out / "synthetic_wstar.csv").read_text().strip().split("\n")
        assert wstar[0] == "w_star"
        values = [float(v) for v in wstar[1:]]
        assert len(values) == 3
        assert all(abs(v) <= 1 / 3 for v in values)

    @pytest.mark.parametrize(
        "flags", [["--n", "3"], ["--d", "0"], ["--n", "x"], ["--n", "10 20"]], ids=" ".join
    )
    def test_bad_export_flags_exit_2(self, tmp_path, flags):
        assert main(["export", *flags, "--out", str(tmp_path / "exp")]) == 2
        assert not (tmp_path / "exp").exists()

    def test_export_with_fewer_columns_than_default_parties(self, tmp_path):
        # export splits nothing among parties, so m = 6 > d + 1 is no error
        assert main(["export", "--d", "1", "--n", "5", "--out", str(tmp_path / "exp")]) == 0

    def test_reexport_is_byte_identical(self, tmp_path):
        for out in ("e1", "e2"):
            main(["export", "--d", "2", "--n", "5", "--root-seed", "77",
                  "--out", str(tmp_path / out)])
        assert read(tmp_path / "e1" / "synthetic.csv") == read(tmp_path / "e2" / "synthetic.csv")
        assert read(tmp_path / "e1" / "synthetic_wstar.csv") == read(
            tmp_path / "e2" / "synthetic_wstar.csv"
        )


class TestRunnerSweep:
    def test_default_desk_grid_completes_cleanly(self):
        # the full default grid (all methods, eps {1.0, 0.3, 0.1}, n up
        # to 3e5) must run without unhandled errors; singular systems,
        # if any, are recorded in rows rather than raised
        from mpdp.evaluation import aggregate

        cfg = build_config({}, {"seeds": 2, "root_seed": 5150})
        out = run_synthetic(cfg)
        assert len(out.trials) == 4 * 3 * 2 * 3 + 4 * 2
        assert all(t.status in ("ok", "singular") for t in out.trials)
        assert aggregate(out.trials, betas=(0.1,))

    def test_synthetic_k_grid_sweep_rows(self):
        cfg = build_config(
            {},
            {
                "methods": ("rmgm",),
                "n_grid": (2000,),
                "eps_grid": (1.0,),
                "seeds": 2,
                "k_mode": "grid",
                "k_grid": (5, 10, 20),
                "root_seed": 9,
            },
        )
        out = run_synthetic(cfg)
        assert sorted({t.k for t in out.trials}) == [5, 10, 20]
        assert len(out.trials) == 6

    def test_rate_k_mode(self):
        cfg = build_config(
            {},
            {
                "methods": ("rmgm",),
                "n_grid": (5000,),
                "eps_grid": (1.0,),
                "seeds": 1,
                "k_mode": "rate",
                "root_seed": 9,
            },
        )
        out = run_synthetic(cfg)
        (t,) = out.trials
        sigma = 4.844805262605389
        assert t.k == max(1, round((5000 * 10) ** 0.5 / (2**0.5 * sigma)))


def force_singular_dgm(monkeypatch, build_seconds=0.0):
    """Make every dgm row's system singular (the zero matrix); building
    it takes at least ``build_seconds``."""
    import time

    import mpdp.runner as runner_module

    def singular_system(release, *args, **kwargs):
        time.sleep(build_seconds)
        return np.zeros_like(release.gram), np.ones_like(release.xty)

    monkeypatch.setattr(runner_module, "dgm_system", singular_system)


class TestStrictMode:
    def test_singular_system_aborts_with_exit_3(self, tmp_path, monkeypatch):
        force_singular_dgm(monkeypatch)
        args = [
            "synthetic",
            "--n-grid", "500",
            "--eps-grid", "1.0",
            "--methods", "dgm",
            "--seeds", "1",
            "--root-seed", "1",
            "--out", str(tmp_path / "res"),
        ]
        assert main(args + ["--strict"]) == 3

    def test_non_strict_records_failure(self, tmp_path, monkeypatch):
        force_singular_dgm(monkeypatch)
        out = tmp_path / "res"
        args = [
            "synthetic",
            "--n-grid", "500",
            "--eps-grid", "1.0",
            "--methods", "dgm,ols",
            "--seeds", "2",
            "--root-seed", "1",
            "--out", str(out),
        ]
        assert main(args) == 0
        rows = (out / "trials.csv").read_text().strip().split("\n")[1:]
        singular = [r for r in rows if r.endswith(",singular")]
        assert len(singular) == 2

    @pytest.mark.parametrize("strict, code", [(True, 3), (False, 0)], ids=["strict", "recorded"])
    def test_overflowing_system_is_singular(self, tmp_path, strict, code):
        # at eps = 1e-153 sigma^2 is finite, but the release's Gram matrix
        # and DGM's de-biasing shift overflow to non-finite entries
        out = tmp_path / "res"
        args = ["synthetic", "--n-grid", "50", "--seeds", "1", "--eps-grid", "1e-153",
                "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(args + (["--strict"] if strict else [])) == code
        if not strict:
            rows = (out / "trials.csv").read_text().strip().split("\n")[1:]
            assert sorted(r.rsplit(",", 1)[1] for r in rows) == ["ok"] + ["singular"] * 3

    def test_singular_trials_are_timed(self, monkeypatch):
        # a task's wall time includes building each of its rows' systems
        force_singular_dgm(monkeypatch, build_seconds=0.002)
        cfg = build_config(
            {}, {"methods": ("dgm",), "n_grid": (500,), "eps_grid": (1.0, 0.3), "seeds": 2}
        )
        output = run_synthetic(cfg)
        assert [t.status for t in output.trials] == ["singular"] * 4
        assert [(n, seed) for n, seed, _ in output.timings] == [(500, 0), (500, 1)]
        for n, seed, seconds in output.timings:
            rows = sum(1 for t in output.trials if (t.n, t.seed) == (n, seed))
            assert rows == 2 and seconds >= 0.002 * rows
