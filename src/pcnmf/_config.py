"""Validation shared by the configuration dataclasses and the public functions.

Each int or float config field declares its range beside its default with
ranged. check is the one scalar rule, kind and range, and returns the value as
stored, int(value) or float(value); check_fields stores it in every such field,
and check_field returns it for a function argument held to its field's rule.
"""

from __future__ import annotations

import math
from dataclasses import field, fields
from numbers import Integral, Real


def _is(kind, value) -> bool:
    """isinstance(value, kind) for a value that is not a bool and is finite."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    try:
        return kind is Integral or math.isfinite(value)
    except OverflowError:  # a Real past float64's range, such as a large JSON int
        return False


# The field annotations check holds values to; the configuration modules postpone
# annotation evaluation, so dataclass fields carry them as strings.
_KINDS = {"int": (Integral, "an int"), "float": (Real, "finite")}


def ranged(default, low, high=None, strict: bool = False):
    """A dataclass field with this default, in [low, high] or, if strict, (low, high).

    high None leaves the range open above.
    """
    return field(default=default, metadata={"range": (low, high, strict)})


def check(label: str, value, kind: str, low, high=None, strict: bool = False):
    """ValueError '<label> must be ..., got <value>' unless value is of kind, in the range.

    kind "int" is an int, "float" a finite real number, and neither a bool. Returns the
    value as stored: int(value) or float(value), the number the range is checked on.
    """
    cls, noun = _KINDS[kind]
    if not _is(cls, value):
        raise ValueError(f"{label} must be {noun}, got {value!r}")
    stored = int(value) if kind == "int" else float(value)
    top = math.inf if high is None else high
    if not (low < stored < top if strict else low <= stored <= top):
        bound = (f"{'>' if strict else '>='} {low}" if high is None
                 else f"in {'(' if strict else '['}{low}, {high}{')' if strict else ']'}")
        raise ValueError(f"{label} must be {bound}, got {value!r}")
    return stored


def check_fields(config) -> None:
    """Store each int or float field of config as check returns it, or raise its ValueError."""
    for f in fields(config):
        if f.type in _KINDS:
            label = f"{type(config).__name__} field {f.name!r}"
            value = check(label, getattr(config, f.name), f.type, *f.metadata["range"])
            object.__setattr__(config, f.name, value)


def check_field(cls, name: str, value, label: str | None = None):
    """value as field name of cls stores it, held to its rule; the error names label, else name."""
    f = next(f for f in fields(cls) if f.name == name)
    return check(label or name, value, f.type, *f.metadata["range"])


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
