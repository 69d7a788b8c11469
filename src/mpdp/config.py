"""Run configuration: a plain key=value file plus CLI-flag overrides.

Flags win over file values.  Unknown keys are fatal so silent typos
cannot change an experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .rmgm import K_GRID

__all__ = ["ConfigError", "RunConfig", "parse_config_file", "build_config", "FULL_N_GRID"]

DESK_N_GRID = (10_000, 30_000, 100_000, 300_000)
FULL_N_GRID = (10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000)

METHODS = ("ols", "dgm", "rmgm", "bgm")


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


@dataclass(frozen=True)
class RunConfig:
    methods: tuple[str, ...] = METHODS
    n_grid: tuple[int, ...] = DESK_N_GRID
    eps_grid: tuple[float, ...] = (1.0, 0.3, 0.1)
    delta: float = 1e-5
    d: int = 10
    m: int = 6
    seeds: int = 200
    betas: tuple[float, ...] = (0.05, 0.1, 0.2, 0.5)
    k_mode: str = "synthetic"
    k_grid: tuple[int, ...] = K_GRID
    lam: float = 1e-5
    label_column: str | None = None
    csv_path: str | None = None
    out_dir: str = "results"
    strict: bool = False
    full: bool = False
    root_seed: int = 12345
    workers: int = 1

    def validate(self, protocol: str = "synthetic") -> "RunConfig":
        """Check every field; ``protocol`` is the command the config is for.

        Real runs split the CSV's own columns, which ``run_real`` checks
        against m once the file is read, so ``d`` bounds m only for
        synthetic and export runs.
        """
        for method in self.methods:
            if method not in METHODS:
                raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")
        if not self.methods:
            raise ConfigError("methods must not be empty")
        if any(n < 5 for n in self.n_grid) or not self.n_grid:
            raise ConfigError("n_grid entries must be >= 5")
        if any(not 0 < e <= 1 for e in self.eps_grid):
            raise ConfigError("eps_grid entries must be in (0, 1]")
        if not 0 < self.delta < 1:
            raise ConfigError("delta must be in (0, 1)")
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        if self.m < 2:
            raise ConfigError("m must be >= 2")
        if protocol != "real" and self.d + 1 < self.m:
            raise ConfigError(f"cannot split d+1={self.d + 1} columns among m={self.m} parties")
        if self.seeds < 1:
            raise ConfigError("seeds must be >= 1")
        if self.k_mode not in ("synthetic", "grid", "rate"):
            raise ConfigError(f"k_mode must be synthetic, grid or rate, got {self.k_mode!r}")
        if not 0 <= self.lam < math.inf:
            raise ConfigError("lambda must be finite and non-negative")
        if any(k < 1 for k in self.k_grid) or not self.k_grid:
            raise ConfigError("k_grid entries must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.root_seed < 0:
            raise ConfigError("root seed must be non-negative")
        return self


# config-file key -> (field name, parser)
def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.replace(",", " ").split())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.replace(",", " ").split())


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(x.strip().lower() for x in text.split(",") if x.strip())


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_KEYS = {
    "methods": ("methods", _str_list),
    "n_grid": ("n_grid", _int_list),
    "eps_grid": ("eps_grid", _float_list),
    "delta": ("delta", float),
    "d": ("d", int),
    "m": ("m", int),
    "seeds": ("seeds", int),
    "betas": ("betas", _float_list),
    "k_mode": ("k_mode", str.strip),
    "k_grid": ("k_grid", _int_list),
    "lambda": ("lam", float),
    "label_column": ("label_column", str.strip),
    "csv_path": ("csv_path", str.strip),
    "out_dir": ("out_dir", str.strip),
    "strict": ("strict", _bool),
    "root_seed": ("root_seed", int),
    "workers": ("workers", int),
}


def parse_config_file(path: str) -> dict[str, object]:
    """Parse a key = value file into RunConfig field values."""
    values: dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip().lower()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        field_name, parser = _KEYS[key]
        try:
            values[field_name] = parser(text.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def build_config(
    file_values: dict[str, object], overrides: dict[str, object], protocol: str = "synthetic"
) -> RunConfig:
    """Layer CLI overrides on top of file values on top of defaults."""
    known = {f.name for f in fields(RunConfig)}
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(merged) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = RunConfig(**merged)
    if cfg.full:
        if "n_grid" not in merged:
            cfg = replace(cfg, n_grid=FULL_N_GRID)
        if "seeds" not in merged:
            cfg = replace(cfg, seeds=1000)
    return cfg.validate(protocol)
