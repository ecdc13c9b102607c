"""Pipeline defaults.

The analysis thresholds (cache threshold, nominal stonewall, recomputation
tolerance, group-size warning, straggler fences) live in the packaged
`defaults.json`; a user config file overrides individual keys, and CLI
flags override both. `defaults.json` is also the schema a user file is
checked against.
"""

from __future__ import annotations

import json
import os
import sys
from importlib import resources
from pathlib import Path

from .errors import ConfigError

OUTDIR_ENV = "IO500KIT_OUT"


def load_defaults() -> dict:
    with resources.files("io500kit").joinpath("defaults.json").open("r", encoding="utf-8") as f:
        return json.load(f)


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in a user-supplied file. A file that cannot be read,
    is not UTF-8 JSON, or holds another kind of value raises ConfigError."""
    try:
        with open(path, encoding="utf-8") as f:
            value = json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    if not isinstance(value, dict):
        raise ConfigError(f"{what} {path}: expected a JSON object, got {type(value).__name__}")
    return value


def load_config(path: str | Path | None = None) -> dict:
    """Defaults merged with an optional user config file (user wins), typed
    by the shape of defaults.json (see `override`)."""
    defaults = load_defaults()
    if path is None:
        return defaults
    return override(defaults, read_json_object(path, "config"), f"config {path}")


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
