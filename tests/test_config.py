"""Declared field ranges: each bound is where its config refuses, and the
public functions that take one of these quantities refuse exactly what its
field refuses, with the same message. A value a field accepts is stored in
the field's type, a numpy scalar included, on every path that sets it."""

import dataclasses
import math
import re

import numpy as np
import pytest

from pcnmf import (
    ExperimentConfig,
    MaskedMatrix,
    ScenarioConfig,
    SolverConfig,
    activation_rate_for_duty,
    compute_reweights,
    fading_step,
    markov_activity,
    penalty_smoothed,
    surrogate_per_slot,
)
from pcnmf.bench import _swept, derive_trial_seeds

_NUMERIC = [(cls, f) for cls in (ScenarioConfig, SolverConfig, ExperimentConfig)
            for f in dataclasses.fields(cls) if f.type in ("int", "float")]


def test_every_int_and_float_field_declares_its_range():
    assert len(_NUMERIC) == 19
    for cls, f in _NUMERIC:
        low, high, strict = f.metadata["range"]
        assert low <= getattr(cls(), f.name) and (high is None or getattr(cls(), f.name) <= high)


def _bound_text(low, high, strict) -> str:
    if high is None:
        return f"{'>' if strict else '>='} {low}"
    return f"in {'(' if strict else '['}{low}, {high}{')' if strict else ']'}"


def _refusals(cls, name, value) -> list[str]:
    """The messages of the constructor, replace() and from_dict() refusing value for name."""
    messages = []
    for path in (lambda: cls(**{name: value}),
                 lambda: dataclasses.replace(cls(), **{name: value}),
                 lambda: cls.from_dict({name: value})):
        with pytest.raises(ValueError) as info:
            path()
        messages.append(str(info.value))
    return messages


@pytest.mark.parametrize("cls, f, end", [
    (cls, f, end) for cls, f in _NUMERIC for end in ("low", "high")
    if end == "low" or f.metadata["range"][1] is not None
], ids=lambda v: getattr(v, "__name__", getattr(v, "name", v)))
def test_declared_bound_is_where_the_field_refuses(cls, f, end):
    low, high, strict = f.metadata["range"]
    bound, outward = (low, -1) if end == "low" else (high, 1)
    if f.type == "int":
        edge, past = bound, bound + outward
    else:
        edge, past = float(bound), math.nextafter(float(bound), outward * math.inf)
    if strict:
        refused = [edge, past]
    else:
        assert getattr(cls(**{f.name: edge}), f.name) == edge
        assert getattr(dataclasses.replace(cls(), **{f.name: edge}), f.name) == edge
        assert getattr(cls.from_dict({f.name: edge}), f.name) == edge
        refused = [past]
    for value in refused:
        named = (f"{cls.__name__} field {f.name!r} must be {_bound_text(low, high, strict)}, "
                 f"got {value!r}")
        assert _refusals(cls, f.name, value) == [named] * 3


# Every kind of value a scalar argument can be given: a bool, a str, None,
# non-finite floats, and the bounds 0 and 1 of these fields with the values
# just past and just inside them, as ints and as floats.
_PROBES = [True, False, "0.5", None, math.nan, math.inf, -math.inf,
           -1, 0, 1, 2, -1.0, 0.0, 1.0, 0.5,
           -5e-324, 5e-324, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]

_ACTS = np.array([[1.0, 2.0, 4.0]])  # no flat transition, so a tiny epsilon divides no 0 by 0
_S = MaskedMatrix(np.ones((2, 3)), np.ones((2, 3)))

_FUNCTIONS = {
    # id: (config, field, argument name, companion fields, call)
    "penalty_smoothed": (SolverConfig, "epsilon", "epsilon", {},
                         lambda v: penalty_smoothed(_ACTS, v)),
    "compute_reweights": (SolverConfig, "epsilon", "epsilon", {},
                          lambda v: compute_reweights(_ACTS, v)),
    "surrogate_per_slot": (SolverConfig, "beta", "beta", {},
                           lambda v: surrogate_per_slot(_S, np.ones((2, 1)), _ACTS, _ACTS,
                                                        compute_reweights(_ACTS, 1e-6), v)),
    "fading_step": (ScenarioConfig, "eta", "eta", {},
                    lambda v: fading_step(np.full(3, 0.5 + 0j), v, np.random.default_rng(0))),
    # a_range (0, 0) keeps the cross-field activation check out of the way.
    "activation_rate_for_duty": (ScenarioConfig, "duty", "duty", {"a_range": (0.0, 0.0)},
                                 lambda v: activation_rate_for_duty(v, 0.1)),
    "markov_activity": (ScenarioConfig, "t_slots", "t_slots", {},
                        lambda v: markov_activity(0.1, 0.1, v, np.random.default_rng(0))),
    "derive_trial_seeds": (ScenarioConfig, "seed", "master_seed", {},
                           lambda v: derive_trial_seeds(v, 0)),
}


@pytest.mark.parametrize("function", list(_FUNCTIONS))
def test_function_refuses_exactly_what_its_field_refuses(function):
    cls, name, argument, companions, call = _FUNCTIONS[function]
    accepted = refused = 0
    for value in _PROBES:
        try:
            cls(**companions, **{name: value})
        except ValueError as exc:
            prefix = f"{cls.__name__} field {name!r}"
            assert str(exc).startswith(prefix + " must be ")
            named = argument + str(exc)[len(prefix):]
            with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
                call(value)
            refused += 1
        else:
            call(value)
            accepted += 1
    assert accepted and refused


# ------------------------------------------------------------- stored type

def _int_inside(low, high, strict):
    """An int in the declared range, or None if the range holds none."""
    top = math.inf if high is None else high
    return next((v for v in (math.ceil(low), math.floor(low) + 1)
                 if (low < v < top if strict else low <= v <= top)), None)


def _numpy_values(f):
    """numpy scalars inside field f's range: an int64 for an int field; a float64
    and, where the range holds an int, an int64 for a float field."""
    if f.type == "int":
        return [np.int64(f.default)]
    whole = _int_inside(*f.metadata["range"])
    return [np.float64(f.default)] + ([] if whole is None else [np.int64(whole)])


@pytest.mark.parametrize("cls, f", _NUMERIC,
                         ids=lambda v: getattr(v, "__name__", getattr(v, "name", v)))
def test_numpy_scalar_is_stored_as_its_fields_python_type(cls, f):
    want = int if f.type == "int" else float
    for value in _numpy_values(f):
        for cfg in (cls(**{f.name: value}), cls.from_dict({f.name: value}),
                    dataclasses.replace(cls(), **{f.name: value})):
            stored = getattr(cfg, f.name)
            assert type(stored) is want and stored == value, (value, stored)


def test_sweep_cell_stores_its_fields_python_type():
    cfg = ExperimentConfig(sweep=(("n_su", (np.int64(6),)), ("p_obs", (np.float64(0.5), 1))))
    assert cfg.sweep == (("n_su", (6,)), ("p_obs", (0.5, 1.0)))
    assert [type(v) for _, values in cfg.sweep for v in values] == [int, float, float]
    for param, part, value, want in [("n_su", "scenario", np.int64(6), int),
                                     ("p_obs", "scenario", np.float64(0.5), float),
                                     ("p_obs", "scenario", np.int64(1), float),
                                     ("solver.max_iters", "solver", np.int64(7), int),
                                     ("solver.beta", "solver", np.int64(0), float)]:
        cell, stored = _swept(cfg, param, value)
        name = param.removeprefix("solver.")
        assert type(stored) is want and stored == value
        assert type(getattr(getattr(cell, part), name)) is want and cell.sweep == ()
