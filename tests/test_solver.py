"""Solver tests: objective pieces, update rules vs naive oracles, solve/infer."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from pcnmf import (
    FactorPair,
    MaskedMatrix,
    NumericFailureError,
    ScenarioConfig,
    ShapeMismatchError,
    SolverConfig,
    compute_reweights,
    fit_gradient,
    generate_scenario,
    infer_activations,
    objective,
    penalty_smoothed,
    solve,
    solver,
    surrogate_per_slot,
    weighted_fit,
)
from steps import rescale, update_activations, update_gains


@pytest.mark.parametrize("field, value, bound", [
    ("beta", -1.0, ">= 0"), ("epsilon", 0.0, "> 0"), ("rank", 0, ">= 1"), ("max_iters", 0, ">= 1"),
    ("rel_tol", -1.0, ">= 0"), ("init_seed", -1, ">= 0"),
], ids=["beta--1.0", "epsilon-0.0", "rank-0", "max_iters-0", "rel_tol--1.0", "init_seed--1"])
def test_solver_config_out_of_range_field_is_named_error(field, value, bound):
    named = f"SolverConfig field {field!r} must be {bound}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("epsilon", [True, "1e-6"])
@pytest.mark.parametrize("step", [penalty_smoothed, compute_reweights],
                         ids=["penalty_smoothed", "compute_reweights"])
def test_epsilon_that_solver_config_refuses_is_named_error(step, epsilon):
    # The step functions hold epsilon to SolverConfig's rule: no bool, no str.
    with pytest.raises(ValueError, match="field 'epsilon' must be finite"):
        SolverConfig(epsilon=epsilon)
    acts = random_instance(5)[1].activations
    with pytest.raises(ValueError, match=f"^epsilon must be finite, got {epsilon!r}$"):
        step(acts, epsilon)


@pytest.mark.parametrize("beta", [np.nan, np.inf, -1.0, True, "1"])
def test_beta_that_solver_config_refuses_is_named_error(beta):
    # surrogate_per_slot holds beta to SolverConfig's rule: a finite number >= 0.
    with pytest.raises(ValueError):
        SolverConfig(beta=beta)
    s, pair = random_instance(5)
    acts = pair.activations
    rule = "must be >= 0" if beta == -1.0 else "must be finite"
    named = f"beta {rule}, got {beta!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        surrogate_per_slot(s, pair.gains, acts, acts, compute_reweights(acts, 1e-6), beta)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call, named", [
    (lambda s, g, a, bad: infer_activations(s, np.where(g > 0.5, bad, g), SolverConfig()),
     "gains must be finite"),
    (lambda s, g, a, bad: penalty_smoothed(a, bad), "^epsilon must be finite, got (nan|inf)$"),
    (lambda s, g, a, bad: compute_reweights(a, bad), "^epsilon must be finite, got (nan|inf)$"),
    (lambda s, g, a, bad: fit_gradient(s, np.where(g > 0.5, bad, g), a), "gains must be finite"),
    (lambda s, g, a, bad: surrogate_per_slot(s, np.where(g > 0.5, bad, g), a, a,
                                             compute_reweights(a, 1e-6), 0.1),
     "gains must be finite"),
    (lambda s, g, a, bad: penalty_smoothed(np.where(a > 0.5, bad, a), 1e-6),
     "activations must be finite"),
    (lambda s, g, a, bad: compute_reweights(np.where(a > 0.5, bad, a), 1e-6),
     "activations must be finite"),
    (lambda s, g, a, bad: fit_gradient(s, g, np.where(a > 0.5, bad, a)),
     "activations must be finite"),
    (lambda s, g, a, bad: surrogate_per_slot(s, g, a, np.where(a > 0.5, bad, a),
                                             compute_reweights(a, 1e-6), 0.1),
     "activations must be finite"),
    (lambda s, g, a, bad: surrogate_per_slot(s, g, np.where(a > 0.5, bad, a), a,
                                             compute_reweights(a, 1e-6), 0.1),
     "activations must be finite"),
], ids=["infer_activations", "penalty_smoothed", "compute_reweights",
        "fit_gradient-gains", "surrogate-gains",
        "penalty_smoothed-acts", "compute_reweights-acts",
        "fit_gradient-acts", "surrogate-p_ref", "surrogate-p_new"])
def test_non_finite_solver_input_is_named_error(call, named, bad):
    s, pair = random_instance(5, n_rows=4, n_cols=6)
    with pytest.raises(ValueError, match=named):
        call(s, pair.gains, pair.activations, bad)


@pytest.mark.parametrize("call", [
    lambda s, g, a: fit_gradient(s, g, a),
    lambda s, g, a: surrogate_per_slot(s, g, a, a, compute_reweights(a, 1e-6), 0.1),
    lambda s, g, a: infer_activations(s, g, SolverConfig(rank=2)),
], ids=["fit_gradient", "surrogate", "infer_activations"])
def test_negative_gains_is_named_error(call):
    s, pair = random_instance(5, n_rows=4, n_cols=6)
    gains = pair.gains.copy()
    gains[1, 0] = -0.5
    with pytest.raises(ValueError, match="gains must be nonnegative"):
        call(s, gains, pair.activations)


@pytest.mark.parametrize("call", [
    lambda s, g, a: penalty_smoothed(a, 1e-6),
    lambda s, g, a: compute_reweights(a, 1e-6),
    lambda s, g, a: fit_gradient(s, g, a),
    lambda s, g, a: surrogate_per_slot(s, g, np.abs(a), a, compute_reweights(np.abs(a), 1e-6), 0.1),
    lambda s, g, a: surrogate_per_slot(s, g, a, np.abs(a), compute_reweights(np.abs(a), 1e-6), 0.1),
], ids=["penalty_smoothed", "compute_reweights", "fit_gradient",
        "surrogate-p_ref", "surrogate-p_new"])
def test_negative_activations_is_named_error(call):
    s, pair = random_instance(5, n_rows=4, n_cols=6)
    acts = pair.activations.copy()
    acts[0, 1] = -0.5
    with pytest.raises(ValueError, match="activations must be nonnegative"):
        call(s, pair.gains, acts)


@pytest.mark.parametrize("call, named", [
    (lambda s, g, a: surrogate_per_slot(s, g, a[:, :3], a, compute_reweights(a, 1e-6), 0.1),
     r"activations shape \(2, 3\) does not match 2 x 4"),
    (lambda s, g, a: surrogate_per_slot(s, g, a, a, compute_reweights(np.ones((2, 6)), 1e-6), 0.1),
     r"reweights shape \(2, 5\) does not match 2 x 3"),
    (lambda s, g, a: penalty_smoothed(a[0], 1e-6), r"activations must be 2-D, got shape \(4,\)"),
    (lambda s, g, a: compute_reweights(a[0], 1e-6), r"activations must be 2-D, got shape \(4,\)"),
    (lambda s, g, a: fit_gradient(s, g, a[0]), r"activations must be 2-D, got shape \(4,\)"),
    (lambda s, g, a: surrogate_per_slot(s, g, a[0], a[0], compute_reweights(a, 1e-6), 0.1),
     r"activations must be 2-D, got shape \(4,\)"),
    (lambda s, g, a: fit_gradient(s, g[:2].tolist(), a),
     r"gains shape \(2, 2\) does not match 3 x K"),
    (lambda s, g, a: fit_gradient(s, g[:, 0], a), r"gains must be 2-D, got shape \(3,\)"),
    (lambda s, g, a: surrogate_per_slot(s, g[:2], a, a, compute_reweights(a, 1e-6), 0.1),
     r"gains shape \(2, 2\) does not match 3 x K"),
    (lambda s, g, a: weighted_fit(s, FactorPair(g[:2], a)),
     r"gains shape \(2, 2\) does not match 3 x K"),
    (lambda s, g, a: weighted_fit(s, FactorPair(g, a[:, :3])),
     r"activations shape \(2, 3\) does not match 2 x 4"),
    (lambda s, g, a: fit_gradient(s, g, a[:, :3]),
     r"activations shape \(2, 3\) does not match 2 x 4"),
    (lambda s, g, a: fit_gradient(s, g, np.vstack([a, a])),
     r"activations shape \(4, 4\) does not match 2 x 4"),
    (lambda s, g, a: infer_activations(s, g[:2], SolverConfig(rank=2)),
     r"gains shape \(2, 2\) does not match 3 x K"),
    (lambda s, g, a: infer_activations(s, g[:, 0], SolverConfig(rank=2)),
     r"gains must be 2-D, got shape \(3,\)"),
], ids=["surrogate-p_new", "surrogate-reweights",
        "penalty_smoothed-1d", "compute_reweights-1d", "fit_gradient-1d",
        "surrogate-1d", "fit_gradient-list-gains",
        "fit_gradient-1d-gains", "surrogate-gains-rows",
        "weighted_fit-pair-rows", "weighted_fit-pair-cols",
        "fit_gradient-wrong-T", "fit_gradient-wrong-K",
        "infer_activations-gains-rows", "infer_activations-1d-gains"])
def test_wrong_shaped_step_input_is_named_error(call, named):
    s, pair = random_instance(5)
    with pytest.raises(ShapeMismatchError, match=named):
        call(s, pair.gains, pair.activations)


def random_instance(seed, n_rows=3, n_cols=4, rank=2, p_obs=0.7):
    rng = np.random.default_rng(seed)
    mask = (rng.random((n_rows, n_cols)) < p_obs).astype(float)
    s = MaskedMatrix(rng.uniform(0.1, 2.0, (n_rows, n_cols)), mask)
    pair = FactorPair(rng.uniform(0.1, 1.5, (n_rows, rank)),
                      rng.uniform(0.1, 1.5, (rank, n_cols)))
    return s, pair


def fit_oracle(s, gains, acts):
    # direct double loop over the separable weighted Euclidean distance
    total = 0.0
    n_rows, n_cols = s.shape
    for t in range(n_cols):
        for r in range(n_rows):
            pred = sum(gains[r, j] * acts[j, t] for j in range(gains.shape[1]))
            total += s.mask[r, t] * 0.5 * (s.values[r, t] - pred) ** 2
    return total


# ---------------------------------------------------------------- weighted fit

def test_weighted_fit_exact_fit_zero():
    rng = np.random.default_rng(0)
    gains = rng.uniform(0.1, 1, (3, 2))
    acts = rng.uniform(0.1, 1, (2, 5))
    mask = (rng.random((3, 5)) < 0.5).astype(float)
    s = MaskedMatrix(gains @ acts, mask)
    assert weighted_fit(s, FactorPair(gains, acts)) == 0.0


def test_weighted_fit_scalar_case():
    s = MaskedMatrix([[2.0]], [[1.0]])
    assert weighted_fit(s, FactorPair([[1.0]], [[1.0]])) == 0.5


def test_weighted_fit_matches_loop_oracle():
    s, pair = random_instance(10)
    got = weighted_fit(s, pair)
    assert got == pytest.approx(fit_oracle(s, pair.gains, pair.activations), abs=1e-12)


# -------------------------------------------------------------------- penalty

def test_penalty_zero_for_constant_rows():
    acts = np.outer([1.0, 2.5], np.ones(6))
    assert penalty_smoothed(acts, 1e-6) == 0.0


def test_penalty_single_transition_value():
    # one unit jump, smoothing epsilon^2 = 1e-4
    assert penalty_smoothed(np.array([[0.0, 1.0]]), 1e-2) == pytest.approx(
        1.0 / (1.0 + 1e-4), rel=0, abs=1e-15
    )


def test_penalty_matches_loop_oracle():
    rng = np.random.default_rng(11)
    acts = rng.uniform(0, 2, (2, 5))
    eps = 1e-3
    expected = 0.0
    for j in range(2):
        for t in range(1, 5):
            d = acts[j, t] - acts[j, t - 1]
            expected += d * d / (d * d + eps * eps)
    assert penalty_smoothed(acts, eps) == pytest.approx(expected, abs=1e-12)


def test_penalty_limit_counts_transitions():
    # integer-valued rows, epsilon -> 0: the smoothed value equals the
    # number of nonzero transitions exactly in float64
    acts = np.array([[0.0, 1.0, 1.0, 3.0, 3.0], [2.0, 2.0, 2.0, 0.0, 5.0]])
    assert penalty_smoothed(acts, 1e-12) == 4.0


def test_penalty_takes_an_int_epsilon_as_its_float():
    # epsilon is squared as a float: 10**200 squared overflows to inf, as 1e200's does,
    # where an int square would be too large to convert to float.
    acts = np.array([[0.0, 1.0, 1.0, 3.0]])
    got = penalty_smoothed(acts, 10**200)
    assert type(got) is float and got == penalty_smoothed(acts, 1e200)


# ------------------------------------------------------------------ objective

def test_objective_beta_zero_equals_fit():
    s, pair = random_instance(12)
    cfg = SolverConfig(beta=0.0, rank=2)
    assert objective(s, pair, cfg) == weighted_fit(s, pair)


def test_objective_exact_fit_constant_rows_zero():
    gains = np.array([[1.0], [0.5]])
    acts = np.full((1, 4), 2.0)
    s = MaskedMatrix(gains @ acts, np.ones((2, 4)))
    cfg = SolverConfig(beta=1.0, rank=1)
    assert objective(s, FactorPair(gains, acts), cfg) == 0.0


def test_objective_is_fit_plus_scaled_penalty():
    s, pair = random_instance(13)
    cfg = SolverConfig(beta=0.25, epsilon=1e-3, rank=2)
    expected = fit_oracle(s, pair.gains, pair.activations) + 0.25 * penalty_smoothed(
        pair.activations, 1e-3
    )
    assert objective(s, pair, cfg) == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------------ reweights

def test_reweights_constant_row():
    acts = np.full((1, 5), 3.0)
    y = compute_reweights(acts, 1e-2)
    # one weight per transition, none beyond either end
    assert y.shape == (1, 4)
    assert np.array_equal(y, np.full((1, 4), 100.0))


def test_reweights_unit_step():
    acts = np.array([[0.0, 1.0]])
    y = compute_reweights(acts, 1e-2)
    assert y.shape == (1, 1)
    assert y[0, 0] == pytest.approx(1.0 / 1.01, abs=1e-15)


def test_reweights_boundaries_always_zero():
    # No transition is weighted beyond either end: with no data to fit, an
    # edge slot moves to its one neighbor, not toward a phantom one.
    rng = np.random.default_rng(14)
    s = MaskedMatrix(np.zeros((2, 7)), np.zeros((2, 7)))
    cfg = SolverConfig(beta=1.0, rank=3)
    for _ in range(5):
        acts = rng.uniform(0, 10, (3, 7))
        y = compute_reweights(acts, 1e-4)
        assert y.shape == (3, 6)
        new = update_activations(s, rng.uniform(0.1, 1.0, (2, 3)), acts, y, cfg)
        assert np.allclose(new[:, 0], acts[:, 1], rtol=1e-14, atol=0)
        assert np.allclose(new[:, -1], acts[:, -2], rtol=1e-14, atol=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("step", [surrogate_per_slot], ids=["surrogate_per_slot"])
def test_non_finite_or_negative_reweight_is_named_error(step, bad):
    s, pair = random_instance(15)
    gains, acts = pair.gains, pair.activations
    y = compute_reweights(acts, 1e-6)
    y[1, 2] = bad
    named = "reweights must be nonnegative" if bad < 0 else "reweights must be finite"
    with pytest.raises(ValueError, match=f"^{named}$"):
        step(s, gains, acts, acts, y, 0.1)


# ---------------------------------------------------------- activation update

def test_activation_update_fixed_point():
    rng = np.random.default_rng(20)
    gains = rng.uniform(0.2, 1.0, (4, 2))
    acts = rng.uniform(0.2, 1.0, (2, 6))
    s = MaskedMatrix(gains @ acts, np.ones((4, 6)))
    cfg = SolverConfig(beta=0.0, rank=2)
    y = compute_reweights(acts, cfg.epsilon)
    new = update_activations(s, gains, acts, y, cfg)
    assert np.allclose(new, acts, rtol=1e-13, atol=0)


def test_activation_update_matches_multiplicative_oracle():
    rng = np.random.default_rng(21)
    gains = rng.uniform(0.2, 1.0, (2, 2))
    acts = rng.uniform(0.2, 1.0, (2, 2))
    s = MaskedMatrix(rng.uniform(0.2, 2.0, (2, 2)), np.ones((2, 2)))
    cfg = SolverConfig(beta=0.0, rank=2)
    y = compute_reweights(acts, cfg.epsilon)
    new = update_activations(s, gains, acts, y, cfg)
    oracle = acts * (gains.T @ s.values) / (gains.T @ (gains @ acts))
    assert np.allclose(new, oracle, rtol=0, atol=1e-15)


def test_activation_step_at_zero_beta_ignores_the_reweights():
    # At beta = 0 the neighbor terms are exact zeros, so the step skips them;
    # the unobserved column has zero curvature, so GUARD clamps both its rows.
    s, pair = random_instance(22, n_rows=4, n_cols=6)
    s = MaskedMatrix(s.values, np.where(np.arange(6) == 2, 0.0, s.mask))
    gains, acts = pair.gains, pair.activations

    def step(reweights):
        ws = solver._Workspace(gains, acts)
        data, curv, _ = solver._expand_at(ws, s, gains, acts)
        return solver._activation_step(ws, acts, data, curv, reweights, 0.0)

    (with_w, clamped_w), (without_w, clamped) = step(compute_reweights(acts, 1e-6)), step(None)
    assert clamped == clamped_w == 2
    assert np.array_equal(with_w, without_w)


@pytest.mark.parametrize("beta, n_cols, coupled", [(0.0, 6, False), (5e-3, 1, False),
                                                   (5e-3, 6, True)])
def test_inference_takes_the_joint_step_only_where_slots_are_coupled(monkeypatch, beta,
                                                                     n_cols, coupled):
    # At beta = 0 or with a single slot the uncoupled update is the sweep's own.
    calls = []
    for name in ("_activation_step", "_joint_activation_step"):
        def counted(*args, _name=name, _step=getattr(solver, name)):
            calls.append(_name)
            return _step(*args)
        monkeypatch.setattr(solver, name, counted)
    s, pair = random_instance(24, n_rows=4, n_cols=n_cols)
    infer_activations(s, pair.gains, SolverConfig(beta=beta, rank=2, max_iters=5, rel_tol=0.0))
    assert calls == ["_joint_activation_step" if coupled else "_activation_step"] * 5


@pytest.mark.parametrize("beta", [0.0, 5e-3])
def test_loops_build_reweights_only_at_positive_beta(monkeypatch, beta):
    def refuse(*args, **kwargs):
        raise AssertionError("_reweights called")

    monkeypatch.setattr(solver, "_reweights", refuse)
    s, pair = random_instance(23, n_rows=4, n_cols=6)
    cfg = SolverConfig(beta=beta, rank=2, max_iters=5, rel_tol=0.0)
    for call in (lambda: solve(s, cfg), lambda: infer_activations(s, pair.gains, cfg)):
        if beta:
            with pytest.raises(AssertionError, match="_reweights called"):
                call()
        else:
            call()


def test_activation_update_large_beta_pulls_to_neighbors():
    # with a dominant penalty and equal neighbors c, the middle slot moves to c
    c = 1.7
    acts = np.array([[c, 0.4, c]])
    gains = np.array([[1.0], [0.8]])
    s = MaskedMatrix(np.ones((2, 3)), np.ones((2, 3)))
    weights = np.ones((1, 2))
    cfg = SolverConfig(beta=1e6, rank=1)
    new = update_activations(s, gains, acts, weights, cfg)
    assert abs(new[0, 1] - c) < 1e-3 * c


def test_activation_update_missing_column_interpolates():
    # a fully unobserved slot is the weighted average of its neighbors
    acts = np.array([[2.0, 5.0, 3.0]])
    gains = np.array([[1.0], [1.0]])
    mask = np.ones((2, 3))
    mask[:, 1] = 0.0
    s = MaskedMatrix(np.ones((2, 3)), mask)
    weights = np.array([[0.3, 0.9]])
    cfg = SolverConfig(beta=0.05, rank=1)
    new = update_activations(s, gains, acts, weights, cfg)
    expected = (0.3 * 2.0 + 0.9 * 3.0) / (0.3 + 0.9)
    assert new[0, 1] == pytest.approx(expected, abs=1e-12)


def test_activation_update_single_slot_ignores_penalty():
    rng = np.random.default_rng(22)
    gains = rng.uniform(0.2, 1.0, (3, 2))
    acts = rng.uniform(0.2, 1.0, (2, 1))
    s = MaskedMatrix(rng.uniform(0.2, 1.0, (3, 1)), np.ones((3, 1)))
    y = compute_reweights(acts, 1e-6)
    with_pen = update_activations(s, gains, acts, y, SolverConfig(beta=5.0, rank=2))
    without = update_activations(s, gains, acts, y, SolverConfig(beta=0.0, rank=2))
    assert np.array_equal(with_pen, without)


def test_activation_update_never_negative_or_nonfinite():
    for seed in range(10):
        s, pair = random_instance(seed, n_rows=5, n_cols=8, rank=3, p_obs=0.5)
        cfg = SolverConfig(beta=0.1, rank=3)
        y = compute_reweights(pair.activations, cfg.epsilon)
        new = update_activations(s, pair.gains, pair.activations, y, cfg)
        assert np.isfinite(new).all() and (new > 0).all()


# --------------------------------------------------------------- gains update

def test_gains_update_fixed_point():
    rng = np.random.default_rng(30)
    gains = rng.uniform(0.2, 1.0, (3, 2))
    acts = rng.uniform(0.2, 1.0, (2, 5))
    s = MaskedMatrix(gains @ acts, np.ones((3, 5)))
    new = update_gains(s, FactorPair(gains, acts))
    assert np.allclose(new, gains, rtol=1e-9, atol=0)


def test_gains_update_zero_entry_stays_zero():
    gains = np.array([[0.0, 0.5], [0.7, 0.3]])
    acts = np.array([[0.4, 0.9], [0.2, 0.1]])
    s = MaskedMatrix(np.ones((2, 2)), np.ones((2, 2)))
    new = update_gains(s, FactorPair(gains, acts))
    assert new[0, 0] == 0.0


def test_gains_update_matches_elementwise_oracle():
    rng = np.random.default_rng(31)
    gains = rng.uniform(0.1, 1.0, (3, 2))
    acts = rng.uniform(0.1, 1.0, (2, 4))
    mask = (rng.random((3, 4)) < 0.6).astype(float)
    s = MaskedMatrix(rng.uniform(0.1, 2.0, (3, 4)), mask)
    new = update_gains(s, FactorPair(gains, acts))
    oracle = np.zeros_like(gains)
    recon = gains @ acts
    for r in range(3):
        for k in range(2):
            num = sum(mask[r, t] * s.values[r, t] * acts[k, t] for t in range(4))
            den = sum(mask[r, t] * recon[r, t] * acts[k, t] for t in range(4))
            oracle[r, k] = gains[r, k] * num / (den + solver.GUARD)
    assert np.allclose(new, oracle, rtol=1e-12, atol=0)


# -------------------------------------------------------------------- rescale

def test_rescale_identity_when_normalized():
    rng = np.random.default_rng(40)
    gains = rng.uniform(0.1, 1.0, (4, 2))
    gains /= np.linalg.norm(gains, axis=0)
    acts = rng.uniform(0.1, 1.0, (2, 5))
    out = rescale(FactorPair(gains, acts))
    assert np.allclose(out.gains, gains, rtol=0, atol=1e-15)
    assert np.allclose(out.activations, acts, rtol=0, atol=1e-15)


def test_rescale_transfers_column_scale():
    gains = np.array([[3.0, 0.0], [4.0, 1.0]])  # column norms 5 and 1
    acts = np.array([[1.0, 2.0], [0.5, 0.5]])
    out = rescale(FactorPair(gains, acts))
    assert np.allclose(out.gains[:, 0], [0.6, 0.8])
    assert np.allclose(out.activations[0], [5.0, 10.0])


def test_rescale_preserves_product():
    rng = np.random.default_rng(41)
    pair = FactorPair(rng.uniform(0.1, 2.0, (5, 3)), rng.uniform(0.1, 2.0, (3, 6)))
    out = rescale(pair)
    before = pair.gains @ pair.activations
    after = out.gains @ out.activations
    assert np.max(np.abs(after - before)) < 1e-12
    assert np.allclose(np.linalg.norm(out.gains, axis=0), 1.0, rtol=0, atol=1e-12)


def test_rescale_redraws_zero_column():
    # A dead column restarts from the init distribution instead of dividing by zero.
    gains = np.array([[3.0, 0.0], [4.0, 0.0]])
    acts = np.array([[1.0, 2.0], [0.5, 0.5]])
    out_gains, out_acts = solver._rescale(gains.copy(), acts, np.random.default_rng(0))
    redrawn = solver._init_draw(np.random.default_rng(0), (2, 1))[:, 0]
    assert np.array_equal(out_gains[:, 0], [0.6, 0.8])
    assert np.array_equal(out_acts[0], [5.0, 10.0])
    assert np.allclose(out_gains[:, 1], redrawn / np.linalg.norm(redrawn), rtol=0, atol=1e-15)
    assert np.allclose(out_acts[1], 0.5 * np.linalg.norm(redrawn), rtol=0, atol=1e-15)


def test_rescale_redraws_a_frozen_pairs_dead_column_into_a_copy():
    # FactorPair's arrays are read-only; the redraw goes into a copy of the gains.
    pair = FactorPair([[0.0, 1.0], [0.0, 2.0]], np.ones((2, 3)))
    out = rescale(pair)
    redrawn = solver._init_draw(np.random.default_rng(0), (2, 1))[:, 0]
    assert np.array_equal(pair.gains, [[0.0, 1.0], [0.0, 2.0]])
    assert np.allclose(out.gains[:, 0], redrawn / np.linalg.norm(redrawn), rtol=0, atol=1e-15)
    assert np.allclose(out.gains[:, 1], np.array([1.0, 2.0]) / np.sqrt(5.0), rtol=0, atol=1e-15)


def test_rescale_invariance_of_fit():
    s, pair = random_instance(42, n_rows=6, n_cols=8, rank=3)
    cfg = SolverConfig(beta=0.0, rank=3)
    assert abs(objective(s, pair, cfg) - objective(s, rescale(pair), cfg)) <= 1e-10


# ----------------------------------------------------------- gradient/surrogate

def test_fit_gradient_matches_finite_differences():
    rng = np.random.default_rng(50)
    s, pair = random_instance(51, n_rows=6, n_cols=5, rank=3, p_obs=0.6)
    gains, acts = pair.gains, pair.activations.copy()
    grad = fit_gradient(s, gains, acts)
    step = 1e-6
    for j, t in [(0, 0), (1, 2), (2, 4)]:
        plus = acts.copy()
        minus = acts.copy()
        plus[j, t] += step
        minus[j, t] -= step
        fd = (
            weighted_fit(s, FactorPair(gains, plus))
            - weighted_fit(s, FactorPair(gains, minus))
        ) / (2 * step)
        assert grad[j, t] == pytest.approx(fd, rel=1e-5)


def test_fit_gradient_accepts_nested_lists():
    s = MaskedMatrix(np.full((3, 4), 2.0), np.ones((3, 4)))
    grad = fit_gradient(s, [[1.0], [1.0], [1.0]], [[1.0] * 4])
    assert np.array_equal(grad, fit_gradient(s, np.ones((3, 1)), np.ones((1, 4))))
    assert np.array_equal(grad, np.full((1, 4), -3.0))


def test_surrogate_majorizes_slot_fit():
    # G(p, p_ref) >= C(p) for sampled positive p, equality at p = p_ref
    rng = np.random.default_rng(52)
    s, pair = random_instance(53, n_rows=5, n_cols=4, rank=2, p_obs=0.8)
    gains, ref = pair.gains, pair.activations
    y = compute_reweights(ref, 1e-6)

    def slot_fit(acts):
        resid = s.mask * (s.values - gains @ acts)
        return 0.5 * np.sum(resid * resid, axis=0)

    at_ref = surrogate_per_slot(s, gains, ref, ref, y, 0.0)
    assert np.allclose(at_ref, slot_fit(ref), rtol=0, atol=1e-10)
    for _ in range(20):
        p = rng.uniform(0.05, 2.5, size=ref.shape)
        g = surrogate_per_slot(s, gains, p, ref, y, 0.0)
        assert (g >= slot_fit(p) - 1e-9).all()


def test_surrogate_not_increased_by_activation_sweep():
    for seed in range(8):
        s, pair = random_instance(seed + 60, n_rows=6, n_cols=9, rank=3, p_obs=0.6)
        for beta in (0.0, 5e-3, 1.0):
            cfg = SolverConfig(beta=beta, rank=3)
            y = compute_reweights(pair.activations, cfg.epsilon)
            new = update_activations(s, pair.gains, pair.activations, y, cfg)
            before = surrogate_per_slot(s, pair.gains, pair.activations,
                                        pair.activations, y, beta)
            after = surrogate_per_slot(s, pair.gains, new, pair.activations, y, beta)
            assert (after <= before + 1e-9).all()


# ---------------------------------------------------------------------- solve

def test_solve_recovers_rank_one_instance():
    rng = np.random.default_rng(70)
    gains = rng.uniform(0.5, 1.5, size=(6, 1))
    acts = rng.uniform(0.5, 1.5, size=(1, 9))
    s = MaskedMatrix(gains @ acts, np.ones((6, 9)))
    cfg = SolverConfig(beta=0.0, rank=1, max_iters=500, rel_tol=0.0, init_seed=7)
    pair, trace = solve(s, cfg)
    assert trace.records[-1].fit < 1e-8


def test_solve_matches_classical_nmf_in_lockstep():
    rng = np.random.default_rng(71)
    S = rng.uniform(0.2, 2.0, size=(6, 5))
    s = MaskedMatrix(S, np.ones_like(S))
    cfg = SolverConfig(beta=0.0, rank=2, max_iters=25, rel_tol=0.0, init_seed=3)
    _, trace = solve(s, cfg, record_factors=True)

    irng = np.random.default_rng(3)
    G = irng.uniform(0.1, 1.1, size=(6, 2))
    P = irng.uniform(0.1, 1.1, size=(2, 5))
    for it in range(25):
        P = P * (G.T @ S) / (G.T @ (G @ P))
        G = G * (S @ P.T) / ((G @ P) @ P.T + solver.GUARD)
        norms = np.sqrt(np.sum(G * G, axis=0))
        G, P = G / norms, P * norms[:, None]
        snap = trace.iterates[it].pair
        assert np.max(np.abs(snap.gains - G)) <= 1e-10
        assert np.max(np.abs(snap.activations - P)) <= 1e-10


def test_solve_all_missing_keeps_fit_zero():
    s = MaskedMatrix(np.zeros((4, 6)), np.zeros((4, 6)))
    cfg = SolverConfig(beta=0.0, rank=2, max_iters=15, rel_tol=0.0)
    with pytest.warns(UserWarning):
        _, trace = solve(s, cfg)
    assert all(rec.fit == 0.0 for rec in trace.records)


@pytest.mark.parametrize("beta", [0.0, 5e-3])
def test_solve_evaluates_the_fit_once_per_iteration(monkeypatch, beta):
    # Once for the start and once after each rescale: the trace needs no other fit.
    masked_fit, calls = solver._masked_fit, []

    def counted(*args):
        calls.append(args)
        return masked_fit(*args)

    monkeypatch.setattr(solver, "_masked_fit", counted)
    s, _ = random_instance(70, n_rows=6, n_cols=9, rank=2, p_obs=0.7)
    n = 7
    solve(s, SolverConfig(beta=beta, rank=2, max_iters=n, rel_tol=0.0))
    assert len(calls) == n + 1


def test_solve_trace_objective_identity_and_monotone_gamma_step():
    for seed in range(5):
        s, _ = random_instance(seed + 80, n_rows=8, n_cols=12, rank=3, p_obs=0.6)
        for beta in (0.0, 5e-3, 1.0):
            cfg = SolverConfig(beta=beta, rank=3, max_iters=25, rel_tol=0.0,
                               init_seed=seed)
            _, trace = solve(s, cfg, record_factors=True)
            prev = trace.initial
            for rec, snap in zip(trace.records, trace.iterates):
                assert rec.objective == rec.fit + beta * rec.penalty
                fit_after_p = weighted_fit(s, FactorPair(prev.gains, snap.activations_updated))
                assert rec.fit <= fit_after_p + 1e-9
                # The activation sweep must not raise the surrogate expanded
                # around the pair that the iteration started from.
                p_ref = prev.activations
                y = compute_reweights(p_ref, cfg.epsilon)
                before = surrogate_per_slot(s, prev.gains, p_ref, p_ref, y, beta).sum()
                after = surrogate_per_slot(s, prev.gains, snap.activations_updated,
                                           p_ref, y, beta).sum()
                assert after <= before + 1e-9
                prev = snap.pair


def criterion_2_instances():
    """(s, cfg) of criterion 2's 100 instances: beta cycles 0, 5e-3, 1; 10 iterations."""
    rng = np.random.default_rng(99)
    for i in range(100):
        n_r, t, k = int(rng.integers(2, 21)), int(rng.integers(2, 101)), int(rng.integers(1, 6))
        scale = float(rng.choice([1.0, 50.0]))
        mask = (rng.random((n_r, t)) < rng.uniform(0.3, 1.0)).astype(float)
        yield (MaskedMatrix(rng.uniform(0.0, scale, (n_r, t)), mask),
               SolverConfig(beta=(0.0, 5e-3, 1.0)[i % 3], rank=k, max_iters=10, rel_tol=0.0,
                            init_seed=i))


def test_solve_steps_never_raise_the_majorized_objective():
    # Criterion 2's instances. Each update step minimizes a majorizer of
    # fit + beta * sum log1p(d^2 / epsilon) that touches it at the step's
    # start, so neither may raise it beyond rounding. The rescale between
    # iterations is left out: it keeps the fit but not the penalty.
    worst = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for s, cfg in criterion_2_instances():
            _, trace = solve(s, cfg, record_factors=True)
            prev = trace.initial
            for snap in trace.iterates:
                values = [majorized(s, prev.gains, prev.activations, cfg),
                          majorized(s, prev.gains, snap.activations_updated, cfg),
                          majorized(s, snap.gains_updated, snap.activations_updated, cfg)]
                worst = max(worst, *(np.diff(values) / np.abs(values[:-1])))
                prev = snap.pair
    assert worst <= 1e-12, worst


def test_inference_trace_never_raises_its_objective():
    # Criterion 2's instances, with gains from a 10-iteration solve. Each
    # inference step minimizes a majorizer of the recorded objective
    # (majorized) that touches it at the step's start, so the trace may not
    # rise beyond rounding; at rel_tol = 0 it holds exactly max_iters records.
    worst = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for s, cfg in criterion_2_instances():
            pair, _ = solve(s, cfg)
            pair_full, trace = infer_activations(s, pair.gains, dataclasses.replace(
                cfg, max_iters=30))
            assert (trace.iterations, trace.stop_reason) == (30, "max_iters")
            assert [rec.iteration for rec in trace.records] == list(range(1, 31))
            for rec in trace.records:
                assert rec.objective == rec.fit + cfg.beta * rec.penalty
                assert rec.penalty == 0.0 or cfg.beta > 0
            last = trace.records[-1]
            assert last.objective == majorized(s, pair.gains, pair_full.activations, cfg)
            objectives = np.array([rec.objective for rec in trace.records])
            worst = max(worst, *(np.diff(objectives) / np.abs(objectives[:-1])))
    assert worst <= 1e-12, worst


def test_solve_iterates_stay_nonnegative():
    s, _ = random_instance(90, n_rows=7, n_cols=10, rank=3, p_obs=0.5)
    cfg = SolverConfig(beta=5e-3, rank=3, max_iters=30, rel_tol=0.0)
    _, trace = solve(s, cfg, record_factors=True)
    for snap in trace.iterates:
        assert (snap.pair.gains >= 0).all()
        assert (snap.pair.activations >= 0).all()


def test_solve_bit_identical_under_missing_value_garbage():
    rng = np.random.default_rng(91)
    mask = (rng.random((5, 8)) < 0.6).astype(float)
    base = rng.uniform(0.1, 2.0, (5, 8))
    garbage = base.copy()
    garbage[mask == 0] = 1e9
    cfg = SolverConfig(beta=5e-3, rank=2, max_iters=20, rel_tol=0.0)
    pair_a, trace_a = solve(MaskedMatrix(base, mask), cfg)
    pair_b, trace_b = solve(MaskedMatrix(garbage, mask), cfg)
    assert np.array_equal(pair_a.gains, pair_b.gains)
    assert np.array_equal(pair_a.activations, pair_b.activations)
    assert [r.objective for r in trace_a.records] == [r.objective for r in trace_b.records]


def test_solve_numeric_failure_carries_iteration():
    big = np.full((4, 6), 1e308)
    s = MaskedMatrix(big, np.ones_like(big))
    cfg = SolverConfig(beta=0.0, rank=2, max_iters=50, rel_tol=0.0)
    with pytest.raises(NumericFailureError) as err, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        solve(s, cfg)
    assert err.value.iteration >= 1


def test_solve_and_infer_accept_zero_slots():
    s = MaskedMatrix(np.zeros((3, 0)), np.zeros((3, 0)))
    cfg = SolverConfig(rank=2, max_iters=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        pair, trace = solve(s, cfg)
    assert pair.activations.shape == (2, 0) and trace.records[0].objective == 0.0
    pair_full, trace = infer_activations(s, pair.gains, cfg)
    assert pair_full.activations.shape == (2, 0) and trace.records[0].objective == 0.0


def test_solve_warns_on_silent_rows():
    values = np.ones((3, 4))
    mask = np.ones((3, 4))
    mask[1] = 0.0
    with pytest.warns(UserWarning, match=r"rows \[1\]"):
        solve(MaskedMatrix(values, mask), SolverConfig(rank=1, max_iters=2))


def test_solve_stops_on_relative_tolerance():
    s, _ = random_instance(92, n_rows=5, n_cols=6, rank=2, p_obs=1.0)
    cfg = SolverConfig(beta=0.0, rank=2, max_iters=5000, rel_tol=1e-6)
    _, trace = solve(s, cfg)
    assert trace.iterations < 5000


# ------------------------------------------------------------ MM loop driver

def scripted(objectives):
    """A step whose states have the given objectives in turn; it logs its calls."""
    calls = []

    def step(iteration):
        calls.append(iteration)
        return objectives[len(calls) - 1], 0.0, 0
    return step, calls


def test_descend_stops_at_first_relative_change_below_tolerance():
    # Relative changes 0.5, 0.5 (not below 0.5), 1e-3: stop after step 3.
    step, calls = scripted([2.0, 1.0, 0.999, 0.5, 0.25])
    trace = solver._descend(step, (4.0, 0.0), SolverConfig(max_iters=10, rel_tol=0.5))
    assert trace.stop_reason == "rel_tol"
    assert calls == [1, 2, 3]


def test_descend_runs_exactly_max_iters_at_zero_tolerance():
    step, calls = scripted([1.0] * 7)
    trace = solver._descend(step, (1.0, 0.0), SolverConfig(max_iters=7, rel_tol=0.0))
    assert trace.stop_reason == "max_iters"
    assert calls == list(range(1, 8))


def test_descend_divides_by_guard_at_zero_objective():
    # From 0, a change of 1e-13 is 0.1 relative to GUARD = 1e-12, so no stop
    # at rel_tol = 0.05; the next, zero change stops.
    step, calls = scripted([1e-13, 1e-13, 5.0])
    solver._descend(step, (0.0, 0.0), SolverConfig(max_iters=10, rel_tol=0.05))
    assert calls == [1, 2]
    step, calls = scripted([0.0, 5.0])
    solver._descend(step, (0.0, 0.0), SolverConfig(max_iters=10, rel_tol=0.05))
    assert calls == [1]
    # Below GUARD, |prev| is not the divisor: 1e-14 / 1e-12 = 0.01 stops.
    step, calls = scripted([2e-14, 5.0])
    solver._descend(step, (1e-14, 0.0), SolverConfig(max_iters=10, rel_tol=0.05))
    assert calls == [1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_descend_never_stops_early_on_non_finite_objective(bad):
    # The relative change is inf or NaN, and neither is below any rel_tol.
    step, calls = scripted([bad] * 5)
    trace = solver._descend(step, (1.0, 0.0), SolverConfig(max_iters=5, rel_tol=1.0))
    assert trace.stop_reason == "max_iters"
    assert calls == [1, 2, 3, 4, 5]


def test_solve_records_why_it_stopped():
    s, _ = random_instance(71, n_rows=4, n_cols=6)
    _, trace = solve(s, SolverConfig(rank=2, max_iters=30, rel_tol=0.0))
    assert (trace.iterations, trace.stop_reason) == (30, "max_iters")
    # The instance of the kernel oracle's relative-tolerance test, which stops early.
    rng = np.random.default_rng(92)
    rng.random((5, 6))  # the oracle's mask draw: at p_obs = 1 every cell is observed
    s = MaskedMatrix(rng.uniform(0.0, 2.0, (5, 6)), np.ones((5, 6)))
    cfg = SolverConfig(beta=5e-3, rank=2, max_iters=5000, rel_tol=1e-6)
    _, trace = solve(s, cfg)
    assert trace.iterations < cfg.max_iters and trace.stop_reason == "rel_tol"


# ------------------------------------------------------------------- inference

def test_infer_matches_nnls_oracle():
    from scipy.optimize import nnls

    rng = np.random.default_rng(100)
    gains = rng.uniform(0.5, 1.5, size=(12, 3))
    p_true = rng.uniform(0.5, 2.0, size=(3, 10))
    s = MaskedMatrix(gains @ p_true, np.ones((12, 10)))
    cfg = SolverConfig(beta=0.0, rank=3, max_iters=20000, rel_tol=0.0, init_seed=1)
    p_hat = infer_activations(s, gains, cfg)[0].activations
    oracle = np.column_stack([nnls(gains, s.values[:, t])[0] for t in range(10)])
    assert np.linalg.norm(p_hat - oracle) / np.linalg.norm(oracle) < 1e-6


def test_infer_interpolates_missing_column():
    rng = np.random.default_rng(101)
    gains = rng.uniform(0.5, 1.5, size=(8, 2))
    p_true = np.repeat([[1.0], [2.0]], 7, axis=1)
    mask = np.ones((8, 7))
    mask[:, 3] = 0.0
    s = MaskedMatrix(gains @ p_true, mask)
    cfg = SolverConfig(beta=0.05, rank=2, max_iters=5000, rel_tol=0.0, init_seed=2)
    p_hat = infer_activations(s, gains, cfg)[0].activations
    # constant truth on both sides: the unobserved slot settles between them
    lo = np.minimum(p_hat[:, 2], p_hat[:, 4]) - 1e-6
    hi = np.maximum(p_hat[:, 2], p_hat[:, 4]) + 1e-6
    assert ((p_hat[:, 3] >= lo) & (p_hat[:, 3] <= hi)).all()


def test_infer_single_slot_equals_plain_update():
    rng = np.random.default_rng(102)
    gains = rng.uniform(0.5, 1.5, size=(6, 2))
    s = MaskedMatrix(rng.uniform(0.5, 1.5, size=(6, 1)), np.ones((6, 1)))
    cfg_pen = SolverConfig(beta=3.0, rank=2, max_iters=50, rel_tol=0.0, init_seed=5)
    cfg_fit = SolverConfig(beta=0.0, rank=2, max_iters=50, rel_tol=0.0, init_seed=5)
    assert np.array_equal(
        infer_activations(s, gains, cfg_pen)[0].activations,
        infer_activations(s, gains, cfg_fit)[0].activations,
    )


@pytest.mark.parametrize("beta", [0.0, 5e-3])
@pytest.mark.parametrize("scale, iteration", [(1e308, 1), (1e200, 2)])
def test_infer_near_overflow_fails_on_the_first_iterate_that_overflows(scale, iteration, beta):
    # Inference starts from the raw draw, so no start overflows before the
    # loop: the iterate that does is named. The kernel oracle checks that
    # the reference names the same one.
    big = np.full((4, 6), scale)
    cfg = SolverConfig(beta=beta, rank=2, max_iters=50, rel_tol=0.0)
    with pytest.raises(NumericFailureError) as err, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        infer_activations(MaskedMatrix(big, np.ones_like(big)), np.full((4, 2), 0.5), cfg)
    assert err.value.iteration == iteration


# -------------------------------------------------- joint activation step

def majorized(s, gains, acts, cfg):
    """fit + beta * sum log1p(d^2 / epsilon): sum log(d^2 + epsilon) less its constant."""
    d2 = np.square(np.diff(acts, axis=1))
    return (weighted_fit(s, FactorPair(gains, acts))
            + cfg.beta * float(np.log1p(d2 / cfg.epsilon).sum()))


def joint_instance(seed):
    """(s, gains, rank): a random masked instance of at most 9 x 39, rank 1 to 3."""
    rng = np.random.default_rng(seed)
    n_rows, n_cols, rank = (int(rng.integers(2, 10)), int(rng.integers(2, 40)),
                            int(rng.integers(1, 4)))
    mask = (rng.random((n_rows, n_cols)) < rng.uniform(0.3, 1.0)).astype(float)
    s = MaskedMatrix(rng.uniform(0.0, 2.0, (n_rows, n_cols)), mask)
    return s, rng.uniform(0.1, 1.5, (n_rows, rank)), rank


@pytest.mark.parametrize("beta", [5e-3, 1.0])
def test_infer_joint_step_never_raises_the_majorized_objective(beta):
    # Both majorizers of the joint step touch this objective at the current
    # activations, so their joint minimizer cannot raise it.
    for seed in range(100):
        s, gains, rank = joint_instance(seed)
        cfgs = [SolverConfig(beta=beta, rank=rank, max_iters=k, rel_tol=0.0, init_seed=seed)
                for k in range(1, 11)]
        values = np.array([majorized(s, gains, infer_activations(s, gains, cfg)[0].activations,
                                     cfg) for cfg in cfgs])
        rises = np.diff(values) / np.abs(values[:-1])
        assert rises.max() <= 1e-12, (seed, rises.max())


def test_infer_joint_step_holds_still_on_a_converged_plateau():
    # Seed 81: 2 x 18, rank 1, 7 unobserved slots, under the stiff coupling
    # 2 * beta / epsilon = 2e6. Were the step solved for the whole new
    # iterate, the reduction's rounding would move the converged iterates by
    # about 3e-10, and majorized by 1e-13 to 1e-12 relative, up or down.
    # Solved for the increment, that rounding shrinks with the residual.
    s, gains, rank = joint_instance(81)
    assert s.shape == (2, 18) and rank == 1 and (s.mask.sum(axis=0) == 0).sum() == 7
    cfgs = [SolverConfig(beta=1.0, rank=1, max_iters=k, rel_tol=0.0, init_seed=81)
            for k in range(10, 41)]
    values = np.array([majorized(s, gains, infer_activations(s, gains, cfg)[0].activations, cfg)
                       for cfg in cfgs])
    changes = np.abs(np.diff(values)) / np.abs(values[:-1])
    assert changes.max() <= 1e-14, changes.max()


@pytest.mark.parametrize("rel_tol", [1e-4, 1e-6])
@pytest.mark.parametrize("seed", range(3))
def test_infer_stops_at_first_relative_majorized_change_below_rel_tol(seed, rel_tol):
    # Inference stops on the objective its joint step descends, not on
    # fit + beta * rho: the run with rel_tol ends where the first relative
    # change of majorized below rel_tol is.
    s, pair = random_instance(seed, n_rows=6, n_cols=20, rank=2, p_obs=0.8)
    gains = pair.gains
    cfg = SolverConfig(beta=5e-3, rank=2, max_iters=400, rel_tol=rel_tol, init_seed=seed)
    start = solver._init_draw(np.random.default_rng(seed), (2, 20))
    prev = majorized(s, gains, start, cfg)
    for n in range(1, cfg.max_iters + 1):
        acts = infer_activations(s, gains, SolverConfig(
            beta=cfg.beta, rank=2, max_iters=n, rel_tol=0.0, init_seed=seed))[0].activations
        obj = majorized(s, gains, acts, cfg)
        if abs(prev - obj) / max(abs(prev), solver.GUARD) < rel_tol:
            break
        prev = obj
    assert n < cfg.max_iters
    pair_full, trace = infer_activations(s, gains, cfg)
    assert np.array_equal(pair_full.activations, acts)
    assert (trace.iterations, trace.stop_reason) == (n, "rel_tol")


@pytest.mark.parametrize("beta", [5e-3, 1.0])
@pytest.mark.parametrize("case, n_cols", [
    ("all-missing", 12), ("all-missing", 2), ("zero-gains-column", 12),
    ("zero-gains-column", 2), ("unobserved-slot", 12), ("one-slot", 1), ("no-slots", 0),
])
def test_infer_joint_step_degenerate_input_stays_finite(case, n_cols, beta):
    # A component row that sees no data makes the joint system singular,
    # unless its diagonal is guarded. With two slots an unguarded reduction
    # divides zero by zero.
    rng = np.random.default_rng(7)
    values, mask = rng.uniform(0.1, 2.0, (5, n_cols)), np.ones((5, n_cols))
    gains = rng.uniform(0.1, 1.5, (5, 3))
    if case == "all-missing":
        mask[:] = 0.0
    elif case == "zero-gains-column":
        gains[:, 1] = 0.0
    elif case == "unobserved-slot":
        mask[:, 4] = 0.0
    cfg = SolverConfig(beta=beta, rank=3, max_iters=50, rel_tol=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        acts = infer_activations(MaskedMatrix(values, mask), gains, cfg)[0].activations
    assert acts.shape == (3, n_cols)
    assert np.isfinite(acts).all() and (acts >= solver.ACTIVATION_FLOOR).all()


def test_joint_step_matches_banded_solve():
    from scipy.linalg import solve_banded

    s = generate_scenario(ScenarioConfig(seed=3)).observed
    pair, _ = solve(s.window(0, 300), SolverConfig(rank=5, max_iters=200))
    gains, beta = pair.gains, 5e-3
    for iters in (1, 20):
        p = infer_activations(s, gains, SolverConfig(rank=5, max_iters=iters))[0].activations
        w = compute_reweights(p, 1e-6)
        ws = solver._Workspace(gains, p)
        data, curv, _ = solver._expand_at(ws, s, gains, p)
        new, _ = solver._joint_activation_step(ws, p, data, curv, w, beta)
        # The system before its rows are scaled by p:
        # (diag(max(curv, GUARD) / p) + 2 beta L_w) x = data.
        for row in range(p.shape[0]):
            couple = 2.0 * beta * w[row]
            bands = np.zeros((3, p.shape[1]))
            bands[0, 1:] = bands[2, :-1] = -couple
            bands[1] = np.maximum(curv[row], solver.GUARD) / p[row]
            bands[1, 1:] += couple
            bands[1, :-1] += couple
            x = solve_banded((1, 1), bands, data[row])
            assert np.max(np.abs(new[row] - x) / x) <= 1e-12, (iters, row)
