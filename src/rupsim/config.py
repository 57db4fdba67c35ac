"""YAML run-configuration loading with field-path diagnostics.

Every getter validates one field and returns a fully typed value, so a bad
config fails before any computation starts and the error names the exact
field ("rup.b_x: expected int, got 'ten'"). A number must be finite, so NaN
and infinities fail too. A view records every value its getters return,
defaults included, nested as in the file. That one record is the run
manifest's config echo, so no run depends on implicit defaults, and the keys
it lacks, such as a misspelled field, are the keys a command never read.
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
    except OSError as exc:  # a directory, or not readable
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from None
    except yaml.YAMLError as exc:
        detail = " ".join(str(exc).split())  # PyYAML's message spans several lines
        raise ConfigError(f"config file {path} is not valid YAML: {detail}") from None
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
    raises ConfigError naming the field when it is required. `record` holds
    what the getters returned, defaults included; a view and the blocks taken
    from it share it, each block as a nested mapping. `unread` lists the keys
    it lacks.
    """

    def __init__(self, data: dict, prefix: str = "", record: dict | None = None):
        self._data = data
        self._prefix = prefix
        self.record = {} if record is None else record

    def _path(self, key: str) -> str:
        return f"{self._prefix}.{key}" if self._prefix else str(key)

    def unread(self) -> list[str]:
        """Dotted paths of the keys never read, in file order.

        A block that was read is walked for its own unread keys; a block that
        was not is named once, as one key.
        """
        out: list[str] = []

        def walk(data: dict, record: dict, prefix: str) -> None:
            for key, val in data.items():
                path = f"{prefix}.{key}" if prefix else str(key)
                if key not in record:
                    out.append(path)
                elif isinstance(val, dict):
                    walk(val, record[key], path)

        walk(self._data, self.record, self._prefix)
        return out

    def has(self, key: str) -> bool:
        return key in self._data

    def has_block(self, key: str) -> bool:
        """True when key is present and holds a mapping (a nested block)."""
        return isinstance(self._data.get(key), dict)

    def block(self, key: str, required: bool = True) -> "Conf":
        """The nested block at key; an optional block that is absent reads as empty."""
        val = self._data.get(key, {})
        if key not in self._data and required:
            raise ConfigError(f"{self._path(key)}: required block is missing")
        if not isinstance(val, dict):
            raise ConfigError(f"{self._path(key)}: expected a mapping, got {type(val).__name__}")
        return Conf(val, self._path(key), self.record.setdefault(key, {}))

    def _keep(self, key: str, val):
        """Record val under key, a list as a copy, and return it."""
        self.record[key] = list(val) if isinstance(val, list) else val
        return val

    def _get(self, key: str, default, kind: str, **bounds):
        if key not in self._data:
            if default is _REQUIRED:
                raise ConfigError(f"{self._path(key)}: required field is missing")
            return self._keep(key, default)
        return self._keep(key, _check(self._path(key), self._data[key], kind, **bounds))

    def _get_list(self, key: str, default, kind: str, min_len: int, **bounds) -> list:
        if key not in self._data:  # the default, or the missing-field error
            return self._get(key, default, kind)
        val = self._data[key]
        if not isinstance(val, list) or len(val) < min_len:
            raise ConfigError(f"{self._path(key)}: expected a list of at least "
                              f"{min_len} {_KINDS[kind][1]}, got {val!r}")
        return self._keep(key, [_check(f"{self._path(key)}[{i}]", item, kind, **bounds)
                                for i, item in enumerate(val)])

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
