"""YAML run-configuration loading with field-path diagnostics.

Every getter validates one field and returns a fully typed value, so a bad
config fails before any computation starts and the error names the exact
field ("rup.b_x: expected int, got 'ten'"). A number must be finite, so NaN
and infinities fail too. Commands materialize all defaults into the run
manifest, so no run depends on implicit defaults. A view records the dotted
path of every key its getters read, so the keys a command never read, such as
a misspelled field, can be named afterwards.
"""

from __future__ import annotations

import math
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


# the Python types of each value kind, and how list messages name its items
_KINDS = {"int": (int, "integer(s)"), "number": ((int, float), "number(s)"),
          "string": (str, "string(s)")}


def _finite_float(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _yaml_float(text: str) -> str:
    """A number float() reads, spelt as YAML 1.1 reads a float: a dot, and a signed exponent."""
    mantissa, e, exponent = text.strip().partition("e" if "e" in text else "E")
    if "." not in mantissa:
        mantissa += ".0"
    if exponent and exponent[0] not in "+-":
        exponent = "+" + exponent
    return mantissa + e + exponent


def _check(path: str, val, kind: str, ge=None, gt=None, choices=None, bound_word: str = ""):
    """One value of a kind ("int", "number" or "string"), checked and converted.

    A number is returned as a float and must be finite; ge, gt and choices
    bound the value. bound_word prefixes the noun in ">=" messages.
    """
    if isinstance(val, bool) or not isinstance(val, _KINDS[kind][0]):
        hint = ""
        if kind == "number" and isinstance(val, str) and _finite_float(val):
            hint = (" (YAML 1.1 reads a number without a dot as a string; "
                    f"write {_yaml_float(val)})")
        raise ConfigError(f"{path}: expected {kind}, got {val!r}{hint}")
    if choices is not None and val not in choices:
        raise ConfigError(f"{path}: expected one of {sorted(choices)}, got {val!r}")
    if kind == "number":
        val = float(val)
        if not math.isfinite(val):
            raise ConfigError(f"{path}: expected a finite number, got {val}")
    if ge is not None and val < ge:
        raise ConfigError(f"{path}: expected {bound_word}>= {ge}, got {val}")
    if gt is not None and val <= gt:
        raise ConfigError(f"{path}: expected > {gt}, got {val}")
    return val


class Conf:
    """Read-only view over a config mapping with dotted-path error messages.

    A getter returns its default, unchecked, when the key is absent, and
    raises ConfigError naming the field when it is required. A view and the
    blocks taken from it share one record of the paths read; `unread` lists
    the keys no getter or `block` call has read.
    """

    def __init__(self, data: dict, prefix: str = "", read: set[str] | None = None):
        self._data = data
        self._prefix = prefix
        self._read = set() if read is None else read

    def _path(self, key: str) -> str:
        return f"{self._prefix}.{key}" if self._prefix else str(key)

    def unread(self) -> list[str]:
        """Dotted paths of the keys never read, in file order.

        A block that was read is walked for its own unread keys; a block that
        was not is named once, as one key.
        """
        out: list[str] = []

        def walk(data: dict, prefix: str) -> None:
            for key, val in data.items():
                path = f"{prefix}.{key}" if prefix else str(key)
                if path not in self._read:
                    out.append(path)
                elif isinstance(val, dict):
                    walk(val, path)

        walk(self._data, self._prefix)
        return out

    def has(self, key: str) -> bool:
        return key in self._data

    def has_block(self, key: str) -> bool:
        """True when key is present and holds a mapping (a nested block)."""
        return isinstance(self._data.get(key), dict)

    def block(self, key: str, required: bool = True) -> "Conf":
        """The nested block at key; an optional block that is absent reads as empty."""
        if key not in self._data:
            if required:
                raise ConfigError(f"{self._path(key)}: required block is missing")
            return Conf({}, self._path(key), self._read)
        self._read.add(self._path(key))
        val = self._data[key]
        if not isinstance(val, dict):
            raise ConfigError(f"{self._path(key)}: expected a mapping, got {type(val).__name__}")
        return Conf(val, self._path(key), self._read)

    def _get(self, key: str, default, kind: str, **bounds):
        if key not in self._data:
            if default is _REQUIRED:
                raise ConfigError(f"{self._path(key)}: required field is missing")
            return default
        self._read.add(self._path(key))
        return _check(self._path(key), self._data[key], kind, **bounds)

    def _get_list(self, key: str, default, kind: str, min_len: int, **bounds) -> list:
        if key not in self._data:  # the default, or the missing-field error
            return self._get(key, default, kind)
        self._read.add(self._path(key))
        val = self._data[key]
        if not isinstance(val, list) or len(val) < min_len:
            raise ConfigError(f"{self._path(key)}: expected a list of at least "
                              f"{min_len} {_KINDS[kind][1]}, got {val!r}")
        return [_check(f"{self._path(key)}[{i}]", item, kind, **bounds)
                for i, item in enumerate(val)]

    def get_int(self, key: str, default=_REQUIRED, ge: int | None = None) -> int:
        return self._get(key, default, "int", ge=ge, bound_word="int ")

    def get_float(self, key: str, default=_REQUIRED, ge: float | None = None,
                  gt: float | None = None) -> float:
        return self._get(key, default, "number", ge=ge, gt=gt)

    def get_str(self, key: str, default=_REQUIRED, choices: Sequence[str] | None = None) -> str:
        return self._get(key, default, "string", choices=choices)

    def get_float_list(self, key: str, default=_REQUIRED, min_len: int = 1,
                       ge: float | None = None) -> list[float]:
        return self._get_list(key, default, "number", min_len, ge=ge)

    def get_int_list(self, key: str, default=_REQUIRED, min_len: int = 1,
                     ge: int | None = None) -> list[int]:
        return self._get_list(key, default, "int", min_len, ge=ge)

    def get_str_list(self, key: str, default=_REQUIRED, min_len: int = 1) -> list[str]:
        return self._get_list(key, default, "string", min_len)


def dump_config(data: dict) -> str:
    """Canonical serialization; parse -> dump -> parse is idempotent."""
    return yaml.safe_dump(data, sort_keys=True, default_flow_style=False)
