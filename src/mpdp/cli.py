"""Command-line entry point.

Subcommands:
  synthetic   convergence sweep on generated data
  real        mean-squared-error protocol on a user-supplied CSV
  export      write one generated dataset plus its ground-truth sidecar

Exit codes: 0 success, 2 configuration or input-format errors,
3 a singular trained system under --strict.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, build_config, parse_config_file
from .data_model import DataFormatError
from .linalg import SingularSystemError
from .runner import export_synthetic, run_real, run_synthetic, write_outputs

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key = value configuration file")
    parser.add_argument("--seeds", type=int, metavar="N", help="trials per grid cell")
    parser.add_argument("--root-seed", type=int, metavar="U64", dest="root_seed")
    parser.add_argument("--out", metavar="DIR", dest="out_dir", help="output directory")
    parser.add_argument("--workers", type=int, metavar="N", help="parallel trial workers")
    parser.add_argument("--strict", action="store_true", default=None,
                        help="abort on singular trained systems instead of recording them")
    parser.add_argument("--lambda", type=float, dest="lam", metavar="L",
                        help="ridge stabilizer added to every solved system")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpdp")
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthetic", help="convergence sweep on generated data")
    _add_common(p_syn)
    p_syn.add_argument("--full", action="store_true", default=None,
                       help="full-scale grid (n up to 3e6, 1000 seeds); hours of runtime")
    p_syn.add_argument("--n-grid", dest="n_grid", metavar="N,N,...",
                       help="comma-separated training sizes")
    p_syn.add_argument("--eps-grid", dest="eps_grid", metavar="E,E,...",
                       help="comma-separated privacy budgets")
    p_syn.add_argument("--methods", metavar="M,M,...",
                       help="subset of ols,dgm,rmgm,bgm")

    p_real = sub.add_parser("real", help="test-MSE protocol on a CSV dataset")
    _add_common(p_real)
    p_real.add_argument("--csv", dest="csv_path", metavar="PATH", help="dataset file")
    p_real.add_argument("--label-column", dest="label_column", metavar="NAME")
    p_real.add_argument("--parties", dest="m", type=int, metavar="M")
    p_real.add_argument("--eps-grid", dest="eps_grid", metavar="E,E,...")
    p_real.add_argument("--methods", metavar="M,M,...")
    p_real.add_argument("--k-mode", dest="k_mode", choices=("synthetic", "grid", "rate"))

    p_exp = sub.add_parser("export", help="write a generated dataset + ground-truth sidecar")
    p_exp.add_argument("--d", type=int, default=10, metavar="D", help="feature count")
    p_exp.add_argument("--n", type=int, default=1000, metavar="N", help="row count")
    p_exp.add_argument("--root-seed", type=int, default=12345, dest="root_seed", metavar="U64")
    p_exp.add_argument("--out", default="export", dest="out_dir", metavar="DIR")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    skip = {"command", "config"}
    out = {}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        try:
            if key in ("n_grid",):
                value = tuple(int(x) for x in str(value).split(","))
            elif key in ("eps_grid",):
                value = tuple(float(x) for x in str(value).split(","))
        except ValueError as exc:
            flag = "--" + key.replace("_", "-")
            raise ConfigError(f"bad value for {flag}: {value!r} ({exc})") from exc
        if key in ("methods",):
            value = tuple(x.strip().lower() for x in str(value).split(","))
        out[key] = value
    return out


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "export":
            cfg = build_config(
                {},
                {"d": args.d, "n_grid": (args.n,), "root_seed": args.root_seed,
                 "out_dir": args.out_dir, "m": 2},  # m is unused by export
            )
            data_path, wstar_path = export_synthetic(cfg, args.out_dir)
            print(f"wrote {data_path} and {wstar_path}")
            return 0

        file_values = parse_config_file(args.config) if getattr(args, "config", None) else {}
        overrides = _overrides(args)
        if args.command == "real" and "k_mode" not in file_values and "k_mode" not in overrides:
            overrides["k_mode"] = "grid"  # the real-data protocol sweeps the k grid
        cfg = build_config(file_values, overrides, protocol=args.command)

        if args.command == "synthetic":
            if cfg.full:
                print(
                    "warning: --full runs n up to 3e6 with 1000 seeds; expect hours",
                    file=sys.stderr,
                )
            output = run_synthetic(cfg)
        else:
            if not cfg.csv_path:
                raise ConfigError("real runs need --csv PATH (or csv_path in the config file)")
            output = run_real(cfg)
    except (ConfigError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularSystemError as exc:
        print(f"error: singular system under --strict: {exc}", file=sys.stderr)
        return 3

    paths = write_outputs(output, cfg)
    failed = sum(1 for t in output.trials if t.status != "ok")
    print(f"{len(output.trials)} trials ({failed} singular) -> {paths['trials']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
