"""Validation shared by the configuration dataclasses and the public functions.

Each int or float config field declares its range beside its default with
ranged. check is the one scalar rule, kind and range; check_fields runs it on
every such field, and check_field on a function argument by its field's rule.
"""

from __future__ import annotations

import math
from dataclasses import field, fields
from numbers import Integral, Real


def _is(kind, value) -> bool:
    """isinstance(value, kind) for a value that is not a bool and is finite."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    return isinstance(value, Integral) or math.isfinite(value)


# The field annotations check holds values to; the configuration modules postpone
# annotation evaluation, so dataclass fields carry them as strings.
_KINDS = {"int": (Integral, "an int"), "float": (Real, "finite")}


def ranged(default, low, high=None, strict: bool = False):
    """A dataclass field with this default, in [low, high] or, if strict, (low, high).

    high None leaves the range open above.
    """
    return field(default=default, metadata={"range": (low, high, strict)})


def check(label: str, value, kind: str, low, high=None, strict: bool = False) -> None:
    """ValueError '<label> must be ..., got <value>' unless value is of kind, in the range.

    kind "int" is an int, "float" a finite real number, and neither a bool.
    """
    cls, noun = _KINDS[kind]
    if not _is(cls, value):
        raise ValueError(f"{label} must be {noun}, got {value!r}")
    top = math.inf if high is None else high
    if not (low < value < top if strict else low <= value <= top):
        bound = (f"{'>' if strict else '>='} {low}" if high is None
                 else f"in {'(' if strict else '['}{low}, {high}{')' if strict else ']'}")
        raise ValueError(f"{label} must be {bound}, got {value!r}")


def check_fields(config) -> None:
    """Raise ValueError naming the first int or float field of config out of its kind or range."""
    for f in fields(config):
        if f.type in _KINDS:
            check(f"{type(config).__name__} field {f.name!r}", getattr(config, f.name),
                  f.type, *f.metadata["range"])


def check_field(cls, name: str, value, label: str | None = None) -> None:
    """Hold value to the kind and range of field name of cls; the error names label, else name."""
    f = next(f for f in fields(cls) if f.name == name)
    check(label or name, value, f.type, *f.metadata["range"])


def check_dict(cls, d) -> None:
    """Raise ValueError unless d is a dict whose keys are all fields of cls.

    Only the shape is checked here: the constructor checks the values.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(map(repr, unknown))}")


def number_pair(name: str, value) -> tuple[float, float]:
    """(low, high) as floats; ValueError unless value is two finite numbers, low <= high."""
    try:
        low, high = value
    except (TypeError, ValueError):
        low = high = None
    if not (_is(Real, low) and _is(Real, high) and low <= high):
        raise ValueError(f"{name} must be two numbers [low, high], finite and with low <= high, "
                         f"got {value!r}")
    return float(low), float(high)
