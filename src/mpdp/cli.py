"""Command-line entry point.

Subcommands:
  synthetic   convergence sweep on generated data
  real        mean-squared-error protocol on a user-supplied CSV
  export      write one generated dataset plus its ground-truth sidecar

Every flag except --config and --full sets one config-file key and takes
the same text as that key does in a config file.

Exit codes: 0 success, 2 configuration or input-format errors, or an
output file that cannot be written, 3 a singular trained system under
--strict.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .config import (FULL_PRESET, ConfigError, RunConfig, build_config, parse_config_file,
                     parse_value)
from .data_model import DataFormatError
from .evaluation import METHODS
from .linalg import SingularSystemError
from .rmgm import K_MODES
from .runner import run_command

__all__ = ["main", "config_from_argv"]

# Flags named unlike the config key they set; any other --some-flag sets some_flag.
_KEY_OF_FLAG = {"parties": "m", "csv": "csv_path", "out": "out_dir", "n": "n_grid"}

# A synthetic sweep that generates this many rows takes hours.  A seed
# generates max(n_grid) rows, whose prefixes are the smaller n's, so a
# sweep generates seeds x max(n_grid): 3.0e9 on the --full grid.
_HOURS_OF_ROWS = 10**9


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value configuration file")
    common.add_argument("--seeds", metavar="N", help="trials per grid cell")
    common.add_argument("--root-seed", metavar="U64")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--workers", metavar="N", help="parallel trial workers")
    common.add_argument("--strict", action="store_const", const="true",
                        help="abort on singular trained systems instead of recording them")
    common.add_argument("--lambda", metavar="L",
                        help="ridge stabilizer added to every solved system")

    parser = argparse.ArgumentParser(prog="mpdp")
    sub = parser.add_subparsers(dest="command", required=True)
    p_syn = sub.add_parser("synthetic", parents=[common],
                           help="convergence sweep on generated data")
    p_syn.add_argument("--full", action="store_true",
                       help="the paper's grid (n up to 3e6, 1000 seeds) below file and flags")
    p_syn.add_argument("--n-grid", metavar="N,N,...", help="training sizes (commas or spaces)")
    p_syn.add_argument("--eps-grid", metavar="E,E,...", help="privacy budgets (commas or spaces)")
    p_syn.add_argument("--methods", metavar="M,M,...", help=f"subset of {','.join(METHODS)}")

    p_real = sub.add_parser("real", parents=[common], help="test-MSE protocol on a CSV dataset")
    p_real.add_argument("--csv", metavar="PATH", help="dataset file")
    p_real.add_argument("--label-column", metavar="NAME")
    p_real.add_argument("--parties", metavar="M")
    p_real.add_argument("--eps-grid", metavar="E,E,...")
    p_real.add_argument("--methods", metavar="M,M,...")
    p_real.add_argument("--k-mode", metavar="{" + ",".join(K_MODES) + "}")

    p_exp = sub.add_parser("export", help="write a generated dataset + ground-truth sidecar")
    p_exp.add_argument("--d", metavar="D", help="feature count")
    p_exp.add_argument("--n", metavar="N", help="row count")
    p_exp.add_argument("--root-seed", metavar="U64")
    p_exp.add_argument("--out", metavar="DIR")
    return parser


def _flag_values(flags: dict[str, str]) -> dict[str, object]:
    """The flags' texts, each parsed by its config key's parser."""
    values = {}
    for dest, text in flags.items():
        try:
            field_name, value = parse_value(_KEY_OF_FLAG.get(dest, dest), text)
        except ValueError as exc:
            flag = "--" + dest.replace("_", "-")
            raise ConfigError(f"bad value for {flag}: {text!r} ({exc})") from exc
        values[field_name] = value
    return values


def config_from_argv(argv: list[str] | None = None) -> tuple[str, RunConfig]:
    """The command and the validated config that ``argv`` asks for."""
    args = vars(_build_parser().parse_args(argv))
    flags = {dest: text for dest, text in args.items() if text is not None}
    command = flags.pop("command")
    config_path = flags.pop("config", None)
    preset = FULL_PRESET if flags.pop("full", False) else {}
    file_values = parse_config_file(config_path) if config_path is not None else {}
    cfg = build_config(preset, file_values, _flag_values(flags), protocol=command)
    rows = cfg.seeds * max(cfg.n_grid)
    if command == "synthetic" and rows >= _HOURS_OF_ROWS:
        print(f"warning: {cfg.seeds} seeds at n up to {max(cfg.n_grid)} generate {rows:.2g} "
              "rows; expect hours", file=sys.stderr)
    return command, cfg


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    # only the format changes: the caller's filters (and any recorder)
    # still decide which warnings show, and each shown one is a single
    # "warning: ..." line, not a source file, line and echoed code
    format_before, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        command, cfg = config_from_argv(argv)
        print(run_command(command, cfg))
    except (ConfigError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularSystemError as exc:
        print(f"error: singular system under --strict: {exc}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = format_before
    return 0


if __name__ == "__main__":
    sys.exit(main())
