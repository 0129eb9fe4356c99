"""Validation shared by the configuration dataclasses."""

from __future__ import annotations

import math
from dataclasses import fields
from numbers import Integral, Real


def _is(kind, value) -> bool:
    """isinstance(value, kind) for a value that is not a bool and is finite."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    return isinstance(value, Integral) or math.isfinite(value)


def is_number(value) -> bool:
    """True for a finite int or float; a bool, NaN and ±inf are not numbers."""
    return _is(Real, value)


# The field annotations check_dict checks; the configuration modules postpone
# annotation evaluation, so dataclass fields carry them as strings.
_KINDS = {"int": (Integral, "an int"), "float": (Real, "a finite number")}


def check_dict(cls, d) -> None:
    """Raise ValueError unless d is a dict of fields of cls with valid types.

    A field annotated int takes an int and one annotated float any finite
    number; a bool is neither, and NaN and ±inf are not finite. The error
    names the offending key.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
    types = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(d) - set(types))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(map(repr, unknown))}")
    for key, value in d.items():
        kind, noun = _KINDS.get(types[key], (None, None))
        if kind is not None and not _is(kind, value):
            raise ValueError(f"{cls.__name__} key {key!r} must be {noun}, got {value!r}")


def check_fields(config) -> None:
    """Raise ValueError naming the first field of config that does not hold its kind.

    A field annotated int must hold an int, and a bool is not one; a field
    annotated float must not be NaN or ±inf.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int" and not _is(Integral, value):
            problem = "must be an int"
        elif f.type == "float" and not math.isfinite(value):
            problem = "must be finite"
        else:
            continue
        raise ValueError(f"{type(config).__name__} field {f.name!r} {problem}, got {value!r}")


def number_pair(name: str, value) -> tuple[float, float]:
    """(low, high) as floats; ValueError unless value is two finite numbers, low <= high."""
    try:
        low, high = value
    except (TypeError, ValueError):
        low = high = None
    if not (is_number(low) and is_number(high) and low <= high):
        raise ValueError(f"{name} must be two numbers [low, high], finite and with low <= high, "
                         f"got {value!r}")
    return float(low), float(high)
