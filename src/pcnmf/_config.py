"""Validation shared by the configuration dataclasses and the trial API."""

from __future__ import annotations

import math
from dataclasses import fields
from numbers import Integral, Real


def _is(kind, value) -> bool:
    """isinstance(value, kind) for a value that is not a bool and is finite."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    return isinstance(value, Integral) or math.isfinite(value)


# The field annotations check_fields checks; the configuration modules postpone
# annotation evaluation, so dataclass fields carry them as strings.
_KINDS = {"int": (Integral, "an int"), "float": (Real, "finite")}


def check_dict(cls, d) -> None:
    """Raise ValueError unless d is a dict whose keys are all fields of cls.

    Only the shape is checked here: the constructor checks the values.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(map(repr, unknown))}")


def check_fields(config) -> None:
    """Raise ValueError naming the first field of config that does not hold its kind.

    A field annotated int holds an int and one annotated float a finite real
    number; a bool is neither, and NaN and ±inf are not finite.
    """
    for f in fields(config):
        kind, noun = _KINDS.get(f.type, (None, None))
        value = getattr(config, f.name)
        if kind is not None and not _is(kind, value):
            raise ValueError(f"{type(config).__name__} field {f.name!r} must be {noun}, "
                             f"got {value!r}")


def check_int(name: str, value, low: int) -> None:
    """Raise ValueError naming name unless value is an int (not a bool) >= low."""
    if not _is(Integral, value):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


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
