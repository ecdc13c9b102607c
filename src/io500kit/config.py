"""Pipeline defaults.

All tunable thresholds (significance level, cache threshold, nominal
stonewall, straggler fences) live in the packaged `defaults.json`; a user
config file overrides individual keys, and CLI flags override both.
"""

from __future__ import annotations

import json
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
    """Defaults merged with an optional user config file (user wins)."""
    merged = load_defaults()
    if path is None:
        return merged
    user = read_json_object(path, "config")
    for key, value in user.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key].update(value)
        else:
            merged[key] = value
    return merged


def default_outdir() -> Path:
    return Path(os.environ.get(OUTDIR_ENV, "io500kit-out"))
