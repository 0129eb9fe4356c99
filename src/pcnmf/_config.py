"""Validation shared by the configuration dataclasses and the public functions.

Each int, float or [low, high] pair config field declares its range beside its
default with ranged. check is the one setting rule, kind and range, and returns
the value as stored, int(value), float(value) or a tuple of two floats;
check_fields stores it in every such field, and check_field returns it for a
function argument held to its field's rule. check_dict is the shape rule for a
JSON object, and list_items for a list.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
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
_PAIR = "tuple[float, float]"
_KINDS = {"int": (Integral, "an int"), "float": (Real, "finite"),
          _PAIR: (Real, "two finite numbers [low, high] with low <= high")}


def ranged(default, low, high=None, strict: bool = False):
    """A dataclass field with this default, in [low, high] or, if strict, (low, high).

    high None leaves the range open above. A pair's default is (low end, high end),
    and each end lies in the range.
    """
    return field(default=default, metadata={"range": (low, high, strict)})


def check(label: str, value, kind: str, low, high=None, strict: bool = False):
    """ValueError '<label> must be ..., got <value>' unless value is of kind, in the range.

    kind "int" is an int, "float" a finite real number, and neither a bool; a pair,
    "tuple[float, float]", lists two such numbers, low <= high, and each end is held to
    the range. Returns the value as stored: int(value), float(value) or a tuple of the
    two floats, the numbers the range is checked on.
    """
    cls, noun = _KINDS[kind]
    ends = (list_items(value, 2) or (None, None)) if kind == _PAIR else (value,)
    if not (all(_is(cls, end) for end in ends) and ends[0] <= ends[-1]):
        raise ValueError(f"{label} must be {noun}, got {value!r}")
    stored = tuple(int(end) if kind == "int" else float(end) for end in ends)
    top = math.inf if high is None else high
    if not all(low < end < top if strict else low <= end <= top for end in stored):
        bound = (f"{'>' if strict else '>='} {low}" if high is None
                 else f"in {'(' if strict else '['}{low}, {high}{')' if strict else ']'}")
        raise ValueError(f"{label} must be {bound}, got {value!r}")
    return stored if kind == _PAIR else stored[0]


def check_fields(config) -> None:
    """Store each int, float or pair field of config as check returns it, or raise its error."""
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


def list_items(value, length: int | None = None) -> tuple | None:
    """value's items as a tuple if a list setting of length items (any, for None), else None."""
    if isinstance(value, (str, bytes, Mapping)):  # not a string's characters or an object's keys
        return None
    try:
        items = tuple(value)
    except TypeError:  # not iterable, such as a number or a 0-d numpy array
        return None
    return items if length is None or len(items) == length else None

