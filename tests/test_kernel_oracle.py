"""Bit-identity of the shared MM kernel against the reference solver loops.

reference_solver.py keeps the solve/infer_activations loops as they were
written before the kernel shared its products, and the plain form of the
joint activation step that infer_activations takes at beta > 0. Every
iterate, trace record, stop iteration and inferred activation must be
exactly equal.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import reference_solver as ref
from pcnmf import (
    FactorPair,
    MaskedMatrix,
    NumericFailureError,
    ScenarioConfig,
    SolverConfig,
    compute_reweights,
    fit_gradient,
    generate_scenario,
    infer_activations,
    penalty_smoothed,
    solve,
    surrogate_per_slot,
    weighted_fit,
)
from pcnmf.solver import GUARD
from steps import update_activations, update_gains

BETAS = (0.0, 5e-3, 1.0)


def masked_instance(seed, n_rows, n_cols, p_obs=0.6, scale=2.0):
    rng = np.random.default_rng(seed)
    mask = (rng.random((n_rows, n_cols)) < p_obs).astype(float)
    return MaskedMatrix(rng.uniform(0.0, scale, (n_rows, n_cols)), mask)


def assert_same_solve(s, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        pair, trace = solve(s, cfg, record_factors=True)
        pair_ref, trace_ref = ref.solve(s, cfg, record_factors=True)
    assert trace.iterations == trace_ref.iterations
    assert np.array_equal(pair.gains, pair_ref.gains)
    assert np.array_equal(pair.activations, pair_ref.activations)
    assert np.array_equal(trace.initial.gains, trace_ref.initial.gains)
    assert np.array_equal(trace.initial.activations, trace_ref.initial.activations)
    for rec, rec_ref in zip(trace.records, trace_ref.records):
        for f in dataclasses.fields(rec):
            assert np.array_equal(getattr(rec, f.name), getattr(rec_ref, f.name)), (
                f"iteration {rec.iteration}: {f.name}"
            )
    for snap, snap_ref in zip(trace.iterates, trace_ref.iterates):
        assert np.array_equal(snap.activations_updated, snap_ref.activations_updated)
        assert np.array_equal(snap.gains_updated, snap_ref.gains_updated)
        assert np.array_equal(snap.pair.gains, snap_ref.pair.gains)
        assert np.array_equal(snap.pair.activations, snap_ref.pair.activations)
    return pair, trace


def reference_infer(s, gains, cfg):
    """The sweep's reference at beta = 0, the joint step's above it."""
    infer = ref.infer_activations_joint if cfg.beta else ref.infer_activations
    return infer(s, gains, cfg)


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("seed", range(4))
def test_solve_and_infer_match_reference(seed, beta):
    rng = np.random.default_rng(1000 + seed)
    n_rows = int(rng.integers(2, 13))
    n_cols = int(rng.integers(2, 60))
    rank = int(rng.integers(1, 5))
    s = masked_instance(seed, n_rows, n_cols, p_obs=rng.uniform(0.3, 1.0))
    cfg = SolverConfig(beta=beta, rank=rank, max_iters=60, rel_tol=0.0,
                       init_seed=seed)
    pair, _ = assert_same_solve(s, cfg)
    assert np.array_equal(infer_activations(s, pair.gains, cfg)[0].activations,
                          reference_infer(s, pair.gains, cfg))


@pytest.mark.parametrize("beta", [0.0, 5e-3])
def test_paper_window_matches_reference(beta):
    s = generate_scenario(ScenarioConfig(seed=3)).observed.window(0, 300)
    cfg = SolverConfig(beta=beta, rank=5, max_iters=200, rel_tol=0.0)
    pair, _ = assert_same_solve(s, cfg)
    assert np.array_equal(infer_activations(s, pair.gains, cfg)[0].activations,
                          reference_infer(s, pair.gains, cfg))


# With two slots, both are boundary slots. The explicit ids name each
# one-slot case by its beta alone.
@pytest.mark.parametrize("beta, n_cols", [
    *(pytest.param(beta, 1, id=str(beta)) for beta in BETAS),
    *(pytest.param(beta, 2, id=f"{beta}-2") for beta in BETAS),
])
def test_single_slot_matches_reference(beta, n_cols):
    s = masked_instance(7, 5, n_cols, p_obs=1.0)
    cfg = SolverConfig(beta=beta, rank=2, max_iters=20, rel_tol=0.0)
    pair, _ = assert_same_solve(s, cfg)
    assert np.array_equal(infer_activations(s, pair.gains, cfg)[0].activations,
                          reference_infer(s, pair.gains, cfg))


def test_relative_tolerance_stop_matches_reference():
    s = masked_instance(92, 5, 6, p_obs=1.0)
    cfg = SolverConfig(beta=5e-3, rank=2, max_iters=5000, rel_tol=1e-6)
    pair, trace = assert_same_solve(s, cfg)
    assert trace.iterations < cfg.max_iters
    assert np.array_equal(infer_activations(s, pair.gains, cfg)[0].activations,
                          reference_infer(s, pair.gains, cfg))


def test_dead_column_restart_matches_reference():
    s = MaskedMatrix(np.zeros((4, 6)), np.zeros((4, 6)))
    cfg = SolverConfig(beta=5e-3, rank=2, max_iters=15, rel_tol=0.0)
    _, trace = assert_same_solve(s, cfg)
    # the gains update zeroes every column here, so each iteration restarts;
    # the snapshot keeps the update's zeros, the rescaled pair the redraw
    assert not update_gains(s, trace.initial).any()
    assert not any(snap.gains_updated.any() for snap in trace.iterates)
    assert all(snap.pair.gains.all() for snap in trace.iterates)


@pytest.mark.parametrize("beta", [0.0, 5e-3])
def test_observed_zeros_dead_columns_match_reference(beta):
    # Observed zeros give the gains update a zero numerator and a positive
    # denominator, so every column dies while the sweep still sees curvature.
    mask = (np.random.default_rng(5).random((5, 8)) < 0.6).astype(float)
    s = MaskedMatrix(np.zeros((5, 8)), mask)
    cfg = SolverConfig(beta=beta, rank=3, max_iters=12, rel_tol=0.0, init_seed=2)
    pair, trace = assert_same_solve(s, cfg)
    assert not any(snap.gains_updated.any() for snap in trace.iterates)
    assert np.allclose(np.linalg.norm(pair.gains, axis=0), 1.0, rtol=0, atol=1e-15)
    assert np.array_equal(infer_activations(s, pair.gains, cfg)[0].activations,
                          reference_infer(s, pair.gains, cfg))


def failure_iteration(fn, *args):
    with pytest.raises(NumericFailureError) as err, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fn(*args)
    return err.value.iteration


def test_numeric_failure_iteration_matches_reference():
    big = np.full((4, 6), 1e308)
    s = MaskedMatrix(big, np.ones_like(big))
    # This one overflows only after its first iteration.
    late = masked_instance(2, 4, 6, p_obs=0.8, scale=1e154)
    # Inference starts from the raw draw, so neither start overflows before
    # its loop: at 1e308 both fail on their first iterate, at 1e200 later.
    gains = np.full((4, 2), 0.5)
    for beta in (0.0, 5e-3):
        cfg = SolverConfig(beta=beta, rank=2, max_iters=50, rel_tol=0.0)
        assert failure_iteration(solve, s, cfg) == failure_iteration(ref.solve, s, cfg)
        caught = failure_iteration(solve, late, cfg)
        assert caught > 1 and caught == failure_iteration(ref.solve, late, cfg)
        # At beta > 0 inference takes the joint step; at beta = 0 that step is the sweep.
        ref_infer = ref.infer_activations_joint if beta > 0 else ref.infer_activations
        for s_infer in (s, MaskedMatrix(big / 1e108, np.ones_like(big))):
            assert (failure_iteration(infer_activations, s_infer, gains, cfg)
                    == failure_iteration(ref_infer, s_infer, gains, cfg))


def test_repeated_calls_return_equal_unaliased_arrays():
    """No call hands out a workspace buffer, to its caller or to a later call."""
    s = masked_instance(11, 6, 40)
    cfg = SolverConfig(beta=5e-3, rank=3, max_iters=10, rel_tol=0.0)

    def outputs():
        pair, trace = solve(s, cfg, record_factors=True)
        gains, acts = pair.gains, pair.activations
        y = compute_reweights(acts, cfg.epsilon)
        out = [gains, acts, infer_activations(s, gains, cfg)[0].activations, y,
               update_activations(s, gains, acts, y, cfg), update_gains(s, pair),
               fit_gradient(s, gains, acts),
               surrogate_per_slot(s, gains, acts, acts, y, cfg.beta)]
        for snap in trace.iterates:
            out += [snap.activations_updated, snap.gains_updated,
                    snap.pair.gains, snap.pair.activations]
        return out

    first, second = outputs(), outputs()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    arrays = first + second
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:]), i


@pytest.mark.parametrize("beta", BETAS)
def test_public_steps_match_reference(beta):
    for seed in range(5):
        s = masked_instance(seed + 40, 6, 9)
        rng = np.random.default_rng(seed)
        pair = FactorPair(rng.uniform(0.1, 1.5, (6, 3)), rng.uniform(0.1, 1.5, (3, 9)))
        p_new = rng.uniform(0.1, 1.5, (3, 9))
        cfg = SolverConfig(beta=beta, rank=3)
        gains, acts = pair.gains, pair.activations
        y = compute_reweights(acts, cfg.epsilon)
        # The reference pads its weights with a zero column on either side.
        y_ref = ref.compute_reweights(acts, cfg.epsilon)
        assert np.array_equal(y, y_ref[:, 1:-1])
        assert not y_ref[:, 0].any() and not y_ref[:, -1].any()
        new_ref, _ = ref._activation_step(s.values, s.mask, gains, acts, y_ref, beta, GUARD)
        assert np.array_equal(update_activations(s, gains, acts, y, cfg), new_ref)
        for p in (acts, p_new):
            assert np.array_equal(surrogate_per_slot(s, gains, p, acts, y, beta),
                                  ref.surrogate_per_slot(s, gains, p, acts, y_ref, beta))
        assert weighted_fit(s, pair) == ref._weighted_fit(s.values, s.mask, gains, acts)
        assert penalty_smoothed(acts, cfg.epsilon) == ref.penalty_smoothed(acts, cfg.epsilon)
