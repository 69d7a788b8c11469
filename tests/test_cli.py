import os

import numpy as np
import pytest

from mpdp.cli import main
from mpdp.config import ConfigError, build_config, parse_config_file
from mpdp.runner import run_real, run_synthetic, write_outputs

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "insurance_sample.csv")


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


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

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("not_a_key = 3\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            build_config({}, {"eps_grid": (2.0,)})
        with pytest.raises(ConfigError):
            build_config({}, {"methods": ("svm",)})
        with pytest.raises(ConfigError):
            build_config({}, {"m": 12, "d": 10})

    def test_full_flag_expands_grid(self):
        cfg = build_config({}, {"full": True})
        assert max(cfg.n_grid) == 3_000_000
        assert cfg.seeds == 1000


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

    def test_workers_do_not_change_output(self, tmp_path):
        base = [
            "synthetic",
            "--n-grid", "800",
            "--eps-grid", "1.0",
            "--seeds", "4",
            "--root-seed", "5",
        ]
        assert main(base + ["--out", str(tmp_path / "w1"), "--workers", "1"]) == 0
        assert main(base + ["--out", str(tmp_path / "w3"), "--workers", "3"]) == 0
        assert read(tmp_path / "w1" / "trials.csv") == read(tmp_path / "w3" / "trials.csv")

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
        assert "kernel_backend" in meta

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
        for key in ("python_version", "scipy_version"):
            assert meta[key]
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            assert meta[var] == os.environ.get(var, "unset")


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
        # best_k.csv must carry the exact mean_distance of the matching
        # rmgm row in aggregates.csv (with these seeds a plain
        # sum/len mean differs from fmean in the last digits)
        out = tmp_path / "res"
        args = ["real", "--csv", FIXTURE, "--label-column", "expenses",
                "--eps-grid", "1.0,0.5,0.1", "--seeds", "7", "--out", str(out)]
        with pytest.warns(UserWarning, match="k="):
            assert main(args) == 0
        header, *rows = (out / "aggregates.csv").read_text().strip().split("\n")
        columns = header.split(",")
        means = {}
        for row in rows:
            cell = dict(zip(columns, row.split(",")))
            if cell["method"] == "rmgm":
                means[(float(cell["epsilon"]), int(cell["k"]))] = cell["mean_distance"]
        best = (out / "best_k.csv").read_text().strip().split("\n")[1:]
        assert len(best) == 3
        for row in best:
            eps, k, mean = row.split(",")
            assert mean == means[(float(eps), int(k))]
            assert float(mean) == min(float(v) for (e, _), v in means.items() if e == float(eps))

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
        ],
        ids=[
            "more-parties-than-csv-columns",
            "nan-cell",
            "inf-cell",
            "four-rows",
            "not-utf8",
            "missing-file",
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
        assert aggregate(out.trials)

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


class TestStrictMode:
    def test_singular_system_aborts_with_exit_3(self, tmp_path, monkeypatch):
        import mpdp.runner as runner_module
        from mpdp.linalg import SingularSystemError

        def always_singular(*args, **kwargs):
            raise SingularSystemError("forced", min_abs_eig=0.0, cond=np.inf)

        monkeypatch.setattr(runner_module, "dgm_train", always_singular)
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
        import mpdp.runner as runner_module
        from mpdp.linalg import SingularSystemError

        def always_singular(*args, **kwargs):
            raise SingularSystemError("forced", min_abs_eig=1e-9, cond=np.inf)

        monkeypatch.setattr(runner_module, "dgm_train", always_singular)
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

    def test_singular_trials_are_timed(self, monkeypatch):
        import time

        import mpdp.runner as runner_module
        from mpdp.linalg import SingularSystemError

        def always_singular(*args, **kwargs):
            time.sleep(0.002)
            raise SingularSystemError("forced", min_abs_eig=1e-9, cond=np.inf)

        monkeypatch.setattr(runner_module, "dgm_train", always_singular)
        cfg = build_config(
            {}, {"methods": ("dgm",), "n_grid": (500,), "eps_grid": (1.0,), "seeds": 2}
        )
        trials = run_synthetic(cfg).trials
        assert [t.status for t in trials] == ["singular", "singular"]
        assert all(t.wall_time >= 0.002 for t in trials)
