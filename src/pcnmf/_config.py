"""Validation shared by the configuration dataclasses' from_dict paths."""

from __future__ import annotations

from dataclasses import fields


def reject_unknown_keys(cls, d) -> None:
    """Raise ValueError unless d is a dict whose keys are all fields of cls."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(map(repr, unknown))}")
