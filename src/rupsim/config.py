"""YAML run-configuration loading with field-path diagnostics.

Every getter validates one field and returns a fully typed value, so a bad
config fails before any computation starts and the error names the exact
field ("rup.b_x: expected int >= 1, got 'ten'"). Commands materialize all
defaults into the run manifest, so no run depends on implicit defaults.
"""

from __future__ import annotations

from typing import Sequence

import yaml

_REQUIRED = object()


class ConfigError(Exception):
    """Invalid or missing configuration field; message carries the field path."""


def load_yaml(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a mapping at top level")
    return data


class Conf:
    """Read-only view over a config mapping with dotted-path error messages."""

    def __init__(self, data: dict, prefix: str = ""):
        self._data = data
        self._prefix = prefix

    def _path(self, key: str) -> str:
        return f"{self._prefix}.{key}" if self._prefix else key

    def has(self, key: str) -> bool:
        return key in self._data

    def has_block(self, key: str) -> bool:
        """True when key is present and holds a mapping (a nested block)."""
        return isinstance(self._data.get(key), dict)

    def block(self, key: str, required: bool = True) -> "Conf | None":
        if key not in self._data:
            if required:
                raise ConfigError(f"{self._path(key)}: required block is missing")
            return None
        val = self._data[key]
        if not isinstance(val, dict):
            raise ConfigError(f"{self._path(key)}: expected a mapping, got {type(val).__name__}")
        return Conf(val, self._path(key))

    def _fetch(self, key: str, default):
        if key not in self._data:
            if default is _REQUIRED:
                raise ConfigError(f"{self._path(key)}: required field is missing")
            return default, True
        return self._data[key], False

    def get_int(self, key: str, default=_REQUIRED, ge: int | None = None) -> int:
        val, was_default = self._fetch(key, default)
        if was_default:
            return val
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{self._path(key)}: expected int, got {val!r}")
        if ge is not None and val < ge:
            raise ConfigError(f"{self._path(key)}: expected int >= {ge}, got {val}")
        return val

    def get_float(self, key: str, default=_REQUIRED, ge: float | None = None,
                  gt: float | None = None) -> float:
        val, was_default = self._fetch(key, default)
        if was_default:
            return val
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{self._path(key)}: expected number, got {val!r}")
        val = float(val)
        if ge is not None and val < ge:
            raise ConfigError(f"{self._path(key)}: expected >= {ge}, got {val}")
        if gt is not None and val <= gt:
            raise ConfigError(f"{self._path(key)}: expected > {gt}, got {val}")
        return val

    def get_str(self, key: str, default=_REQUIRED, choices: Sequence[str] | None = None) -> str:
        val, was_default = self._fetch(key, default)
        if was_default:
            return val
        if not isinstance(val, str):
            raise ConfigError(f"{self._path(key)}: expected string, got {val!r}")
        if choices is not None and val not in choices:
            raise ConfigError(f"{self._path(key)}: expected one of {sorted(choices)}, got {val!r}")
        return val

    def get_float_list(self, key: str, default=_REQUIRED, min_len: int = 1,
                       ge: float | None = None) -> list[float]:
        val, was_default = self._fetch(key, default)
        if was_default:
            return val
        if not isinstance(val, list) or len(val) < min_len:
            raise ConfigError(f"{self._path(key)}: expected a list of at least "
                              f"{min_len} number(s), got {val!r}")
        out = []
        for i, item in enumerate(val):
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ConfigError(f"{self._path(key)}[{i}]: expected number, got {item!r}")
            item = float(item)
            if ge is not None and item < ge:
                raise ConfigError(f"{self._path(key)}[{i}]: expected >= {ge}, got {item}")
            out.append(item)
        return out

    def get_int_list(self, key: str, default=_REQUIRED, min_len: int = 1,
                     ge: int | None = None) -> list[int]:
        val, was_default = self._fetch(key, default)
        if was_default:
            return val
        if not isinstance(val, list) or len(val) < min_len:
            raise ConfigError(f"{self._path(key)}: expected a list of at least "
                              f"{min_len} integer(s), got {val!r}")
        out = []
        for i, item in enumerate(val):
            if isinstance(item, bool) or not isinstance(item, int):
                raise ConfigError(f"{self._path(key)}[{i}]: expected int, got {item!r}")
            if ge is not None and item < ge:
                raise ConfigError(f"{self._path(key)}[{i}]: expected >= {ge}, got {item}")
            out.append(item)
        return out

    def get_str_list(self, key: str, default=_REQUIRED, min_len: int = 1) -> list[str]:
        val, was_default = self._fetch(key, default)
        if was_default:
            return val
        if not isinstance(val, list) or len(val) < min_len:
            raise ConfigError(f"{self._path(key)}: expected a list of at least "
                              f"{min_len} string(s), got {val!r}")
        for i, item in enumerate(val):
            if not isinstance(item, str):
                raise ConfigError(f"{self._path(key)}[{i}]: expected string, got {item!r}")
        return list(val)


def dump_config(data: dict) -> str:
    """Canonical serialization; parse -> dump -> parse is idempotent."""
    return yaml.safe_dump(data, sort_keys=True, default_flow_style=False)
