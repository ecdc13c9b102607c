"""Pipeline config: the analysis thresholds and their defaults.

`PipelineConfig` holds the cache threshold, nominal stonewall and its
tolerance, recomputation tolerance, group-size warning and, in
`StragglerParams`, the straggler fence and pattern rules. Its field
defaults are the one place each default is written; the analysis kernels
take theirs from these fields. A user config file overrides individual
keys, and CLI flags override both. The defaults are also the schema a user
file is checked against (see `override`).
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import ConfigError

OUTDIR_ENV = "IO500KIT_OUT"


@dataclass(frozen=True)
class StragglerParams:
    """A straggler's ratio lies above Q3 + iqr_multiplier * IQR of its table's
    stonewall ratios and at or above ratio_floor (0 tests the fence alone).
    The other four fields are the pattern rules of
    `loginsight.classify_straggler_pattern`."""

    iqr_multiplier: float = 1.5
    ratio_floor: float = 1.2
    min_pattern_size: int = 3
    contiguous_fraction: float = 0.9
    clustered_fraction: float = 0.6
    min_run_length: int = 2


@dataclass(frozen=True)
class PipelineConfig:
    cache_threshold_s: float = 10.0  # read/stat phases faster than this are cache-affected
    stonewall_nominal_s: float = 300.0
    stonewall_tolerance_s: float = 1.0  # a write this far below the nominal stonewall is a violation
    recompute_rel_tol: float = 0.005  # recomputed vs reported composite score
    min_group_size_warn: int = 5  # `groups` warns about smaller interconnect classes
    straggler: StragglerParams = StragglerParams()


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in a user-supplied file. A file that cannot be read,
    is not UTF-8 JSON, holds another kind of value or repeats a key in any
    object raises ConfigError."""
    where = f"{what} {path}"

    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{where}: repeated key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as f:
            value = json.load(f, object_pairs_hook=unique)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ConfigError(f"cannot read {where}: {exc}") from None
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(value).__name__}")
    return value


def load_config(path: str | Path | None = None) -> PipelineConfig:
    """The defaults with an optional user config file merged on (user wins),
    typed by the defaults' shape (see `override`)."""
    if path is None:
        return PipelineConfig()
    typed = override(asdict(PipelineConfig()), read_json_object(path, "config"), f"config {path}")
    return PipelineConfig(**{**typed, "straggler": StragglerParams(**typed["straggler"])})


def override(default, value, where: str, name: str = ""):
    """value typed by default and merged onto it: an object where the default
    is one, holding only its keys, each typed in turn; a list of as many
    values where it is a list or tuple (returned as its type); true or false
    for a bool; a finite number for a number, an integer for an integer (true
    and false are not numbers). Anything else raises ConfigError naming the key."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: {name} must be an object, got {json.dumps(value)}")
        merged = dict(default)
        for key, item in value.items():
            path = f"{name}.{key}" if name else key
            if key not in default:
                raise ConfigError(f"{where}: unknown key {path!r}")
            merged[key] = override(default[key], item, where, path)
        return merged
    if isinstance(default, (list, tuple)):
        if not isinstance(value, list) or len(value) != len(default):
            raise ConfigError(f"{where}: {name} must be a list of {len(default)} values, got {json.dumps(value)}")
        return type(default)(override(d, v, where, f"{name}[{i}]") for i, (d, v) in enumerate(zip(default, value)))
    if isinstance(default, bool):
        kinds, what = bool, "true or false"
    elif isinstance(default, int):
        kinds, what = int, "an integer"
    else:
        kinds, what = (int, float), "a number"
    if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{where}: {name} must be {what}, got {json.dumps(value)}")
    if what == "a number" and not abs(value) <= sys.float_info.max:  # NaN, inf, or an int no float holds
        raise ConfigError(f"{where}: {name} must be finite, got {value}")
    return value


def default_outdir() -> Path:
    return Path(os.environ.get(OUTDIR_ENV, "io500kit-out"))
