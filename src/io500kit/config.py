"""Pipeline defaults.

The analysis thresholds (cache threshold, nominal stonewall, recomputation
tolerance, group-size warning, straggler fences) live in the packaged
`defaults.json`; a user config file overrides individual keys, and CLI
flags override both. `defaults.json` is also the schema a user file is
checked against.
"""

from __future__ import annotations

import json
import math
import os
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
    """Defaults merged with an optional user config file (user wins).

    The user file may hold only keys that defaults.json has, an object where
    the default is an object, and a finite number where the default is a
    number (an integer where the default is one; true and false are not
    numbers). Anything else raises ConfigError.
    """
    merged = load_defaults()
    if path is not None:
        _override(merged, read_json_object(path, "config"), f"config {path}")
    return merged


def _override(target: dict, user: dict, where: str, prefix: str = "") -> None:
    for key, value in user.items():
        name = prefix + key
        if key not in target:
            raise ConfigError(f"{where}: unknown key {name!r}")
        default = target[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: {name} must be an object, got {json.dumps(value)}")
            _override(default, value, where, name + ".")
            continue
        kinds, what = (int, "an integer") if isinstance(default, int) else ((int, float), "a number")
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ConfigError(f"{where}: {name} must be {what}, got {json.dumps(value)}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where}: {name} must be finite, got {value}")
        target[key] = value


def default_outdir() -> Path:
    return Path(os.environ.get(OUTDIR_ENV, "io500kit-out"))
