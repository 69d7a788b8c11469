"""Run configuration: a plain key=value file plus CLI-flag overrides.

Each settings flag sets one config-file key, and its text goes through
that key's parser (``parse_value``).  Flags win over file values, which
win over the ``--full`` preset.  Unknown keys, and a key set twice in
one file, are fatal so silent typos cannot change an experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .dp_core import calibrate
from .evaluation import tail_prob_column
from .rmgm import K_GRID

__all__ = [
    "ConfigError", "RunConfig", "parse_value", "parse_config_file", "build_config", "FULL_PRESET",
]

DESK_N_GRID = (10_000, 30_000, 100_000, 300_000)
# synthetic --full: the paper's grid, below the config file and the flags
FULL_PRESET = {"n_grid": DESK_N_GRID + (1_000_000, 3_000_000), "seeds": 1000}

_PROTOCOL_DEFAULTS = {  # per-command defaults, below every other layer
    "real": {"k_mode": "grid"},  # the real-data protocol sweeps the k grid
    "export": {"n_grid": (1000,), "out_dir": "export"},
}

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
    root_seed: int = 12345
    workers: int = 1

    def validate(self, protocol: str = "synthetic") -> "RunConfig":
        """Check every field; ``protocol`` is the command the config is for.

        Real runs split the CSV's own columns, which ``run_real`` checks
        against m once the file is read, and export splits nothing, so
        ``d`` bounds m only for synthetic runs.
        """
        for method in self.methods:
            if method not in METHODS:
                raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")
        if not self.methods:
            raise ConfigError("methods must not be empty")
        if any(n < 5 for n in self.n_grid) or not self.n_grid:
            raise ConfigError("n_grid entries must be >= 5")
        if not self.eps_grid:
            raise ConfigError("eps_grid must not be empty")
        for eps in self.eps_grid:  # calibrate checks the epsilon and delta ranges
            try:
                calibrate(eps, self.delta)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        if self.m < 2:
            raise ConfigError("m must be >= 2")
        if protocol == "synthetic" and self.d + 1 < self.m:
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
        for key in ("methods", "n_grid", "eps_grid", "k_grid"):
            values = getattr(self, key)
            if len(set(values)) != len(values):  # each entry would run, or pool, twice
                raise ConfigError(f"{key} repeats an entry: {', '.join(map(str, values))}")
        if not all(map(math.isfinite, self.betas)):
            raise ConfigError(f"betas must be finite, got {', '.join(map(str, self.betas))}")
        columns: dict[str, float] = {}
        for beta in self.betas:  # equal columns would make aggregates.csv ambiguous
            column = tail_prob_column(beta)
            if column in columns:
                raise ConfigError(f"betas repeats an entry: {columns[column]} and {beta} "
                                  f"both write the column {column}")
            columns[column] = beta
        if not 0 <= self.root_seed < 2**64:
            raise ConfigError(f"root seed must be in [0, 2**64), got {self.root_seed}")
        if protocol == "export" and len(self.n_grid) != 1:
            raise ConfigError("export writes one dataset: give one row count")
        if protocol == "real" and not self.csv_path:
            raise ConfigError("real runs need --csv PATH (or csv_path in the config file)")
        return self


def _numbers(kind):
    """A parser for numbers separated by commas and/or spaces."""
    return lambda text: tuple(kind(x) for x in text.replace(",", " ").split())


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(x.strip().lower() for x in text.split(",") if x.strip())


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# config-file key -> (field name, parser); parse_value strips the text first
_KEYS = {
    "methods": ("methods", _str_list),
    "n_grid": ("n_grid", _numbers(int)),
    "eps_grid": ("eps_grid", _numbers(float)),
    "delta": ("delta", float),
    "d": ("d", int),
    "m": ("m", int),
    "seeds": ("seeds", int),
    "betas": ("betas", _numbers(float)),
    "k_mode": ("k_mode", str),
    "k_grid": ("k_grid", _numbers(int)),
    "lambda": ("lam", float),
    "label_column": ("label_column", str),
    "csv_path": ("csv_path", str),
    "out_dir": ("out_dir", str),
    "strict": ("strict", _bool),
    "root_seed": ("root_seed", int),
    "workers": ("workers", int),
}


def parse_value(key: str, text: str) -> tuple[str, object]:
    """(field name, value) of the known config key ``key`` set to ``text``;
    a bad value raises ValueError."""
    field_name, parser = _KEYS[key]
    return field_name, parser(text.strip())


def parse_config_file(path: str) -> dict[str, object]:
    """Parse a key = value file into RunConfig field values.  A line whose
    first non-blank character is ``#`` is a comment; a ``#`` anywhere else
    is part of the value.  A key set twice is an error."""
    values: dict[str, object] = {}
    seen: dict[str, int] = {}  # key -> the line that set it
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip().lower()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is already set on line {seen[key]}")
        seen[key] = lineno
        try:
            field_name, value = parse_value(key, text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        values[field_name] = value
    return values


def build_config(*layers: dict[str, object], protocol: str = "synthetic") -> RunConfig:
    """Field values layered lowest first (the CLI passes the ``--full``
    preset, the config file, then the flags) over the protocol's
    defaults, validated for ``protocol``."""
    merged = dict(_PROTOCOL_DEFAULTS.get(protocol, {}))
    for layer in layers:
        merged.update(layer)
    unknown = set(merged) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**merged).validate(protocol)
