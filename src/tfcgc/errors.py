"""The package's exception classes, one per exit code of the command line,
and the ranges settings declare."""

from __future__ import annotations

import dataclasses
import math


class ConfigError(ValueError):
    """Bad configuration: unknown section or key, unparsable value, or a
    value outside its range (exit 1)."""


class DataError(ValueError):
    """Malformed inputs, or data that do not fit the run (exit 2)."""


class NumericError(RuntimeError):
    """A computation failed on valid input (exit 3)."""


@dataclasses.dataclass(frozen=True)
class Range:
    """Bounds a setting must lie within; ``(`` or ``)`` in ``ends`` excludes
    that end, and a value in range is finite. A tuple must be non-empty with
    every item in range, and None (a computed default) is always in range."""

    low: float = -math.inf
    high: float = math.inf
    ends: str = "[]"

    def holds(self, value) -> bool:
        if value is None:
            return True
        if isinstance(value, tuple):
            return bool(value) and all(map(self.holds, value))
        above = self.low < value if self.ends[0] == "(" else self.low <= value
        below = value < self.high if self.ends[1] == ")" else value <= self.high
        finite = not isinstance(value, float) or math.isfinite(value)
        return above and below and finite

    def __str__(self) -> str:
        if self.high < math.inf:
            return f"in {self.ends[0]}{self.low:g}, {self.high:g}{self.ends[1]}"
        if self.low == -math.inf:
            return "finite"
        return f"{'greater than' if self.ends[0] == '(' else 'at least'} {self.low:g}"


def ranged(default, bound: Range) -> dataclasses.Field:
    """A dataclass field whose value ``check_ranges`` holds to ``bound``."""
    return dataclasses.field(default=default, metadata={"range": bound})


def check_ranges(config, **overrides: Range) -> None:
    """Raise ConfigError for the first field of dataclass ``config`` outside
    its range (from ``overrides`` or the field's metadata); the message
    names the field, which the exception carries as ``key``."""
    for f in dataclasses.fields(config):
        bound = overrides.get(f.name, f.metadata.get("range"))
        value = getattr(config, f.name)
        if bound is not None and not bound.holds(value):
            each = " each" if isinstance(value, tuple) else ""
            exc = ConfigError(f"{f.name} must be {bound}{each}, got {value!r}")
            exc.key = f.name
            raise exc
