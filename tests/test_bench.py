"""Harness tests: metrics, trial pipeline, sweep aggregation, CSV round-trips."""

import concurrent.futures
import dataclasses
import itertools
import json
import math
import re
import time
import warnings

import numpy as np
import pytest

import pcnmf.bench as bench
from pcnmf.cli import main
from pcnmf import (
    ExperimentConfig,
    FactorPair,
    MaskedMatrix,
    NumericFailureError,
    ScenarioConfig,
    ShapeMismatchError,
    SolveTrace,
    SolverConfig,
    read_trials_csv,
    rmse_missing,
    rmse_missing_pooled,
    run_sweep,
    run_trial,
    scale_rows_to_reference,
    transition_count,
    write_benchmark_outputs,
)


def tiny_experiment(**overrides):
    base = dict(
        scenario=ScenarioConfig(seed=42, n_pu=2, n_su=6, t_slots=30, noise_var=1e-8),
        solver=SolverConfig(beta=5e-3, rank=2, max_iters=60, rel_tol=0.0),
        trials=3,
        gamma_window=20,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# -------------------------------------------------------------------- metrics

def test_rmse_zero_for_perfect_reconstruction():
    rng = np.random.default_rng(0)
    truth = rng.uniform(0, 1, (3, 5))
    mask = (rng.random((3, 5)) < 0.5).astype(float)
    assert rmse_missing(truth, truth, mask) == 0.0


def test_rmse_constant_error_single_sensor():
    truth = np.zeros((1, 6))
    rec = np.full((1, 6), 2.5)
    mask = np.array([[1.0, 0.0, 1.0, 0.0, 0.0, 1.0]])
    assert rmse_missing(rec, truth, mask) == pytest.approx(2.5, abs=1e-15)


def test_rmse_matches_two_pass_oracle():
    rng = np.random.default_rng(1)
    truth = rng.uniform(0, 2, (4, 6))
    rec = rng.uniform(0, 2, (4, 6))
    mask = (rng.random((4, 6)) < 0.6).astype(float)
    per_sensor = []
    for r in range(4):
        errs = [
            (rec[r, t] - truth[r, t]) ** 2 for t in range(6) if mask[r, t] == 0
        ]
        if errs:
            per_sensor.append(np.sqrt(np.mean(errs)))
    assert rmse_missing(rec, truth, mask) == pytest.approx(
        np.mean(per_sensor), abs=1e-12
    )
    pooled = [
        (rec[r, t] - truth[r, t]) ** 2
        for r in range(4) for t in range(6) if mask[r, t] == 0
    ]
    assert rmse_missing_pooled(rec, truth, mask) == pytest.approx(
        np.sqrt(np.mean(pooled)), abs=1e-12
    )


def test_rmse_undefined_without_missing_entries():
    ones = np.ones((2, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(rmse_missing(ones, ones, ones))
        assert math.isnan(rmse_missing_pooled(ones, ones, ones))


@pytest.mark.parametrize("scorer", [rmse_missing, rmse_missing_pooled])
@pytest.mark.parametrize("shapes, named", [
    (((2, 3), (2, 3), (2, 4)), "mask shape (2, 4) does not match 2 x 3"),
    (((2, 3), (3, 3), (2, 3)), "truth shape (3, 3) does not match 2 x 3"),
    (((2, 4), (2, 3), (2, 3)), "truth shape (2, 3) does not match 2 x 4"),
], ids=["shapes0", "shapes1", "shapes2"])
def test_rmse_shape_mismatch_is_named_error(scorer, shapes, named):
    rec, tru, mask = (np.zeros(shape) for shape in shapes)
    with pytest.raises(ShapeMismatchError, match=re.escape(named)):
        scorer(rec, tru, mask)


def test_transition_count_constant_row():
    assert transition_count(np.full((1, 8), 3.3), 0.5)[0] == 0


def test_transition_count_single_step():
    row = np.array([[1.0, 1.0, 3.0, 3.0]])
    assert transition_count(row, 1.0)[0] == 1


def test_transition_count_matches_scan_oracle():
    rng = np.random.default_rng(2)
    row = rng.uniform(0, 5, (1, 40))
    threshold = 0.8
    oracle = sum(
        1 for t in range(1, 40) if abs(row[0, t] - row[0, t - 1]) > threshold
    )
    assert transition_count(row, threshold)[0] == oracle


@pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan, math.inf, True, "1"])
def test_transition_count_rejects_threshold_not_above_zero(threshold):
    rule = "must be > 0" if threshold in (0.0, -1.0) else "must be finite"
    named = f"threshold {rule}, got {threshold!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        transition_count(np.ones((1, 4)), threshold)


def test_scale_rows_recovers_permuted_scaled_reference():
    rng = np.random.default_rng(3)
    ref = rng.uniform(0, 3, (3, 25))
    est = ref[[2, 0, 1]] * np.array([[0.01], [5.0], [117.0]])
    scaled = scale_rows_to_reference(est, ref)
    assert np.allclose(scaled, ref[[2, 0, 1]], rtol=1e-12)


def _brute_force_scale_rows(estimate, reference):
    """The K! enumeration scale_rows_to_reference used to run, kept as the oracle.

    Returns the scaled rows, the optimal total cost, the number of
    permutations reaching it and the cost matrix.
    """
    est = np.asarray(estimate, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    k = est.shape[0]
    norms = np.sum(est * est, axis=1)
    dots = est @ ref.T
    ref_norms = np.sum(ref * ref, axis=1)
    safe = np.where(norms > 0, norms, 1.0)[:, None]
    scales = np.where(norms[:, None] > 0, np.maximum(dots, 0.0) / safe, 0.0)
    cost = ref_norms[None, :] - scales * np.maximum(dots, 0.0)
    best_perm, best_cost = None, np.inf
    for perm in itertools.permutations(range(k)):
        c = sum(cost[i, perm[i]] for i in range(k))
        if c < best_cost:
            best_perm, best_cost = perm, c
    tol = 1e-12 * max(1.0, float(np.abs(cost).sum()))
    n_optimal = sum(1 for perm in itertools.permutations(range(k))
                    if sum(cost[i, perm[i]] for i in range(k)) <= best_cost + tol)
    scaled = est * np.array([scales[i, best_perm[i]] for i in range(k)])[:, None]
    return scaled, best_cost, n_optimal, cost


def _assignment_total(cost, perm):
    assert sorted(perm.tolist()) == list(range(cost.shape[0]))
    return sum(cost[i, perm[i]] for i in range(cost.shape[0]))


@pytest.mark.parametrize("k", range(7))
def test_min_cost_assignment_matches_brute_force(k):
    rng = np.random.default_rng(100 + k)
    for trial in range(60):
        if trial % 3 == 0:  # small integers: many tied optima
            cost = rng.integers(0, 3, (k, k)).astype(float)
        else:
            cost = rng.normal(size=(k, k))
        best = min((sum(cost[i, p[i]] for i in range(k))
                    for p in itertools.permutations(range(k))), default=0.0)
        total = _assignment_total(cost, bench._min_cost_assignment(cost))
        assert total == pytest.approx(best, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("k", range(7))
@pytest.mark.parametrize("case", ["random", "zero_row", "tied"])
def test_scale_rows_matches_brute_force_oracle(k, case):
    rng = np.random.default_rng(10 * k + len(case))
    ref = rng.uniform(0, 3, (k, 30))
    est = rng.uniform(0, 3, (k, 30))
    if case == "zero_row" and k:
        est[k // 2] = 0.0
    if case == "tied" and k >= 2:
        ref[1] = ref[0]  # two reference rows interchangeable
        est[-1] = est[0]  # two estimated rows interchangeable
    expected, best_cost, n_optimal, cost = _brute_force_scale_rows(est, ref)
    total = _assignment_total(cost, bench._min_cost_assignment(cost))
    assert total == pytest.approx(best_cost, rel=1e-12, abs=1e-12)
    if case == "tied" and k >= 3:
        assert n_optimal > 1
    if n_optimal == 1:
        assert np.array_equal(scale_rows_to_reference(est, ref), expected)


def test_scale_rows_rank_12_is_fast():
    # The K! enumeration needed about 30 minutes at K = 12.
    rng = np.random.default_rng(12)
    ref = rng.uniform(0, 3, (12, 600))
    order = rng.permutation(12)
    est = ref[order] * rng.uniform(0.01, 100.0, (12, 1))
    start = time.perf_counter()
    scaled = scale_rows_to_reference(est, ref)
    assert time.perf_counter() - start < 1.0
    assert np.allclose(scaled, ref[order], rtol=1e-12)


@pytest.mark.parametrize("shapes, named", [
    (((2, 3), (3, 3)), "reference shape (3, 3) does not match 2 x 3"),
    (((2, 3), (2, 4)), "reference shape (2, 4) does not match 2 x 3"),
    (((6,), (2, 3)), "estimate must be 2-D, got shape (6,)"),
], ids=["shapes0", "shapes1", "shapes2"])
def test_scale_rows_shape_mismatch_is_named_error(shapes, named):
    est, ref = (np.ones(shape) for shape in shapes)
    with pytest.raises(ShapeMismatchError, match=re.escape(named)):
        scale_rows_to_reference(est, ref)


@pytest.mark.parametrize("argument", ["estimate", "reference"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scale_rows_rejects_non_finite_input(argument, bad):
    rng = np.random.default_rng(4)
    arrays = {"estimate": rng.uniform(0, 1, (3, 10)),
              "reference": rng.uniform(0, 1, (3, 10))}
    arrays[argument][1, 4] = bad
    with pytest.raises(ValueError, match=f"^{argument} must be finite$"):
        scale_rows_to_reference(**arrays)


@pytest.mark.parametrize("call, error, named", [
    (lambda: rmse_missing(np.ones(3), np.ones(3), np.zeros(3)), ShapeMismatchError,
     "reconstructed must be 2-D, got shape (3,)"),
    (lambda: rmse_missing_pooled(np.ones((1, 2, 3)), np.ones((1, 2, 3)), np.zeros((1, 2, 3))),
     ShapeMismatchError, "reconstructed must be 2-D, got shape (1, 2, 3)"),
    (lambda: rmse_missing(np.ones((1, 3)), np.ones(3), np.zeros((1, 3))), ShapeMismatchError,
     "truth must be 2-D, got shape (3,)"),
    (lambda: rmse_missing_pooled(np.ones((1, 3)), np.ones((1, 3)), np.zeros(3)),
     ShapeMismatchError, "mask must be 2-D, got shape (3,)"),
    (lambda: rmse_missing(np.ones((2, 3)), np.ones((2, 3)), np.full((2, 3), 0.5)), ValueError,
     "mask entries must be exactly 0 or 1"),
    (lambda: rmse_missing_pooled(np.ones((1, 2)), np.ones((1, 2)), [[0.0, np.nan]]), ValueError,
     "mask entries must be exactly 0 or 1"),
    (lambda: transition_count(np.ones(4), 0.5), ShapeMismatchError,
     "activations must be 2-D, got shape (4,)"),
    (lambda: transition_count([[1.0, np.nan, 1.0]], 0.5), ValueError,
     "activations must be finite"),
    (lambda: transition_count([[1.0, np.inf]], 0.5), ValueError,
     "activations must be finite"),
    (lambda: scale_rows_to_reference(np.ones(3), np.ones(3)), ShapeMismatchError,
     "estimate must be 2-D, got shape (3,)"),
])
def test_scorer_refuses_input_that_is_not_a_matrix(call, error, named):
    with pytest.raises(error, match=re.escape(named)):
        call()


@pytest.mark.parametrize("scorer", [rmse_missing, rmse_missing_pooled])
@pytest.mark.parametrize("argument", ["reconstructed", "truth", "mask"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scorer_refuses_non_finite_input(scorer, argument, bad):
    # The bad entry sits in a missing cell, where it would enter the score.
    arrays = {"reconstructed": np.ones((2, 3)), "truth": np.ones((2, 3)),
              "mask": np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])}
    arrays[argument][0, 0] = bad
    named = ("mask entries must be exactly 0 or 1" if argument == "mask"
             else f"{argument} must be finite")
    with pytest.raises(ValueError, match=f"^{named}$"):
        scorer(**arrays)


def test_reconstruction_that_is_not_finite_is_a_failed_row(monkeypatch):
    # With one sensor both unit-norm gains columns are [[1.0]], so gains @ acts
    # adds two activations of 1e308 and overflows. The row fails by name, with
    # no RuntimeWarning (an error under this suite) and no inf score.
    cfg = tiny_experiment(trials=1, scenario=ScenarioConfig(seed=42, n_pu=2, n_su=1, t_slots=30))
    monkeypatch.setattr(bench, "infer_activations", lambda s, gains, cfg: (
        FactorPair(gains, np.full((gains.shape[1], s.n_cols), 1e308)), SolveTrace()))
    summary, rows = run_sweep(cfg)
    assert [(r.method, r.failed, r.error) for r in rows] == [
        (method, True, "reconstruction gains @ activations is not finite")
        for method in ("pcnmf", "wnmf")]
    assert all(math.isnan(r.rmse) and math.isnan(r.rmse_pooled) and r.seconds > 0 for r in rows)
    assert [(row.trials_ok, row.trials_failed) for row in summary] == [(0, 1), (0, 1)]


def test_score_that_overflows_is_a_failed_row(monkeypatch):
    # gains @ acts is 2e200 here, finite, but its squared error overflows in
    # both scorers and in the fit. The row fails by name, with no
    # RuntimeWarning and no inf score.
    cfg = tiny_experiment(trials=1, scenario=ScenarioConfig(seed=42, n_pu=2, n_su=1, t_slots=30))
    monkeypatch.setattr(bench, "infer_activations", lambda s, gains, cfg: (
        FactorPair(gains, np.full((gains.shape[1], s.n_cols), 1e200)), SolveTrace()))
    summary, rows = run_sweep(cfg)
    assert [(r.method, r.failed, r.error) for r in rows] == [
        (method, True, "score of gains @ activations is not finite")
        for method in ("pcnmf", "wnmf")]
    assert all(math.isnan(r.rmse) and math.isnan(r.rmse_pooled) and math.isnan(r.fit)
               for r in rows)
    assert [(row.trials_ok, row.trials_failed) for row in summary] == [(0, 1), (0, 1)]


# --------------------------------------------------------------------- trials

def test_trial_degenerate_full_observation():
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(seed=3, n_pu=2, n_su=8, t_slots=40, eta=1.0,
                                noise_var=0.0, p_obs=1.0),
        solver=SolverConfig(beta=0.0, rank=2, max_iters=4000, rel_tol=0.0),
        trials=1, gamma_window=40, methods=("pcnmf",),
    )
    res = run_trial(cfg, 0)[0]
    assert np.isnan(res.rmse) and np.isnan(res.rmse_pooled)
    assert not res.failed
    assert res.fit < 1e-6


def test_trial_records_are_deterministic():
    cfg = tiny_experiment()
    a = run_trial(cfg, 1)
    b = run_trial(cfg, 1)
    for ra, rb in zip(a, b):
        assert ra.method == rb.method
        assert ra.seed == rb.seed
        assert ra.rmse == rb.rmse
        assert ra.fit == rb.fit
        assert ra.iterations == rb.iterations


def test_trial_failure_is_tallied_not_raised(monkeypatch):
    real_solve = bench.solve

    def exploding_solve(s, cfg, **kwargs):
        if cfg.beta == 0.0:
            raise NumericFailureError(3)
        return real_solve(s, cfg, **kwargs)

    monkeypatch.setattr(bench, "solve", exploding_solve)
    cfg = tiny_experiment(trials=2)
    summary, trials = run_sweep(cfg)
    wnmf_rows = [r for r in summary if r.method == "wnmf"]
    assert wnmf_rows[0].trials_failed == 2 and wnmf_rows[0].trials_ok == 0
    assert np.isnan(wnmf_rows[0].mean_rmse)
    pc_rows = [r for r in summary if r.method == "pcnmf"]
    assert pc_rows[0].trials_failed == 0 and pc_rows[0].trials_ok == 2
    assert all(r.failed for r in trials if r.method == "wnmf")


# ---------------------------------------------------------------------- sweep

def test_sweep_single_point_matches_run_trial():
    cfg = tiny_experiment(trials=1, methods=("pcnmf",))
    summary, trials = run_sweep(cfg)
    direct = run_trial(cfg, 0)[0]
    assert len(summary) == 1 and len(trials) == 1
    assert trials[0].rmse == direct.rmse
    assert summary[0].mean_rmse == direct.rmse
    assert np.isnan(summary[0].stderr_rmse)


def test_sweep_row_count_is_values_times_methods():
    cfg = tiny_experiment(
        trials=2,
        sweep=(("noise_var", (1e-8, 1e-6, 1e-4)),),
    )
    summary, trials = run_sweep(cfg)
    assert len(summary) == 3 * 2
    assert len(trials) == 3 * 2 * 2


def test_sweep_full_observation_has_empty_rmse_cells(tmp_path):
    cfg = tiny_experiment(trials=2, sweep=(("p_obs", (1.0,)),))
    summary, _ = run_sweep(cfg)
    assert all(np.isnan(row.mean_rmse) for row in summary)
    write_benchmark_outputs(tmp_path, summary, [])
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[3] == "" and fields[4] == ""


def test_sweep_parallel_equals_serial(tmp_path):
    cfg = tiny_experiment(trials=4)
    summary_1, trials_1 = run_sweep(cfg, jobs=1)
    summary_2, trials_2 = run_sweep(cfg, jobs=2)
    for a, b in zip(summary_1, summary_2):
        assert (a.sweep_param, a.sweep_value, a.method) == (
            b.sweep_param, b.sweep_value, b.method
        )
        assert a.mean_rmse == b.mean_rmse or (
            np.isnan(a.mean_rmse) and np.isnan(b.mean_rmse)
        )
        assert a.trials_ok == b.trials_ok
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_benchmark_outputs(d1, summary_1, trials_1, include_timing=False)
    write_benchmark_outputs(d2, summary_2, trials_2, include_timing=False)
    for name in ("summary.csv", "trials.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    for ta, tb in zip(trials_1, trials_2):
        assert ta.rmse == tb.rmse or (np.isnan(ta.rmse) and np.isnan(tb.rmse))


def test_emitted_csvs_round_trip_to_summary(tmp_path):
    cfg = tiny_experiment(trials=3, sweep=(("noise_var", (1e-8, 1e-5)),))
    summary, trials = run_sweep(cfg)
    write_benchmark_outputs(tmp_path, [], trials)
    parsed = read_trials_csv(tmp_path / "trials.csv")
    for row in summary:
        vals = np.array([
            r["rmse"] for r in parsed
            if r["sweep_param"] == row.sweep_param
            and r["sweep_value"] == row.sweep_value
            and r["method"] == row.method
            and not r["failed"] and not np.isnan(r["rmse"])
        ])
        if vals.size:
            assert float(np.mean(vals)) == row.mean_rmse
            if vals.size > 1:
                assert float(np.std(vals, ddof=1) / np.sqrt(vals.size)) == row.stderr_rmse
        else:
            assert np.isnan(row.mean_rmse)


def test_wnmf_method_is_solver_with_zero_penalty():
    # the baseline is the same pipeline with beta = 0: configuring the
    # "penalized" method with beta = 0 must reproduce it exactly
    cfg = tiny_experiment(solver=SolverConfig(beta=0.0, rank=2, max_iters=40,
                                              rel_tol=0.0))
    pc, wn = run_trial(cfg, 0)
    assert pc.method == "pcnmf" and wn.method == "wnmf"
    assert pc.rmse == wn.rmse
    assert pc.fit == wn.fit
    assert pc.iterations == wn.iterations


def scenario_of(cfg, trial_index):
    """The truth run_trial generates for trial_index of cfg."""
    seed = bench.derive_trial_seeds(cfg.scenario.seed, trial_index)[0]
    return bench.generate_scenario(dataclasses.replace(cfg.scenario, seed=seed))


@pytest.mark.parametrize("scenario, rank, active, counted", [
    (ScenarioConfig(seed=42, n_pu=2, n_su=6, t_slots=30, noise_var=1e-8), 2, True, True),
    (ScenarioConfig(seed=42, n_pu=2, n_su=6, t_slots=30, noise_var=1e-8), 1, True, False),
    (ScenarioConfig(seed=0, n_pu=1, n_su=6, t_slots=30, noise_var=1e-8, duty=0.1,
                    a_range=(0.05, 0.1)), 1, False, False),
    (ScenarioConfig(seed=42, n_pu=2, n_su=6, t_slots=30, noise_var=1e-8,
                    power_range=(0.0, 0.0)), 2, True, False),
], ids=["counted", "rank-not-n_pu", "no-active-slot", "zero-power"])
def test_transitions_are_nan_where_the_count_is_undefined(scenario, rank, active, counted):
    # The count compares rows of the estimate with the true powers, one to one,
    # against a threshold of 0.1 x their mean active power: without one row per
    # transmitter, an active slot, or a positive power it is undefined.
    cfg = tiny_experiment(scenario=scenario,
                          solver=SolverConfig(beta=5e-3, rank=rank, max_iters=20, rel_tol=0.0))
    assert scenario_of(cfg, 0).activity.any() == active
    results = run_trial(cfg, 0)
    assert [r.method for r in results] == ["pcnmf", "wnmf"]
    for r in results:
        assert not r.failed and math.isfinite(r.rmse)
        assert math.isfinite(r.transitions) == counted


def test_run_trial_can_export_traces(tmp_path):
    cfg = tiny_experiment(trials=1)
    run_trial(cfg, 0, trace_dir=tmp_path)
    for method in ("pcnmf", "wnmf"):
        lines = (tmp_path / f"trace_0_{method}.csv").read_text().splitlines()
        assert lines[0] == "iter,fit,penalty,objective,clamped"
        assert len(lines) == 1 + cfg.solver.max_iters


def test_experiment_config_validation_and_round_trip():
    with pytest.raises(ValueError):
        tiny_experiment(trials=0)
    with pytest.raises(ValueError):
        tiny_experiment(gamma_window=31)
    with pytest.raises(ValueError):
        tiny_experiment(methods=("pcnmf", "bogus"))
    with pytest.raises(ValueError, match=r"sweep value 1\.5 for 'p_obs'"):
        tiny_experiment(sweep=(("p_obs", (0.5, 1.5)),))
    cfg = tiny_experiment(sweep=(("noise_var", (1e-6, 1e-5)),))
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("cls, name, value", [
    (SolverConfig, "beta", math.nan),
    (SolverConfig, "epsilon", math.inf),
    (SolverConfig, "rel_tol", math.nan),
    (ScenarioConfig, "noise_var", math.nan),
    (ScenarioConfig, "alpha", math.nan),
    (ScenarioConfig, "area_side", math.inf),
    (ScenarioConfig, "d0", math.inf),
])
def test_non_finite_config_field_is_named_error(cls, name, value):
    with pytest.raises(ValueError, match=f"field '{name}' must be finite"):
        cls(**{name: value})
    with pytest.raises(ValueError, match=f"field '{name}' must be finite"):
        dataclasses.replace(cls(), **{name: value})


@pytest.mark.parametrize("cls, name, value", [
    (SolverConfig, "max_iters", math.inf),
    (SolverConfig, "rank", 2.5),
    (SolverConfig, "init_seed", True),
    (ScenarioConfig, "n_su", 2.5),
    (ExperimentConfig, "trials", 2.5),
    (ExperimentConfig, "gamma_window", 20.0),
])
def test_non_integer_config_field_is_named_error(cls, name, value):
    named = f"{cls.__name__} field '{name}' must be an int, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(named)):
        cls(**{name: value})
    with pytest.raises(ValueError, match=re.escape(named)):
        dataclasses.replace(cls(), **{name: value})


_NOT_A_NUMBER = ["0.1", None, True, [1], math.nan, math.inf]


@pytest.mark.parametrize("cls, name, value", [
    *[(cls, name, value)
      for cls, name in [(ScenarioConfig, "n_su"), (ScenarioConfig, "seed"),
                        (SolverConfig, "rank"), (SolverConfig, "max_iters"),
                        (ExperimentConfig, "trials"), (ExperimentConfig, "gamma_window")]
      for value in [*_NOT_A_NUMBER, 2.5]],
    *[(cls, name, value)
      for cls, name in [(ScenarioConfig, "p_obs"), (ScenarioConfig, "noise_var"),
                        (SolverConfig, "beta"), (SolverConfig, "rel_tol")]
      for value in _NOT_A_NUMBER],
])
def test_bad_config_value_is_one_named_error_on_every_path(cls, name, value):
    # The constructor, replace() and from_dict() all run the one field
    # check, so each refuses the value with the same message.
    paths = [lambda: cls(**{name: value}),
             lambda: dataclasses.replace(cls(), **{name: value}),
             lambda: cls.from_dict({name: value})]
    messages = []
    for path in paths:
        with pytest.raises(ValueError) as info:
            path()
        messages.append(str(info.value))
    noun = "an int" if isinstance(getattr(cls(), name), int) else "finite"
    assert messages == [f"{cls.__name__} field '{name}' must be {noun}, got {value!r}"] * 3


@pytest.mark.parametrize("name, value", [
    ("scenario", {"seed": 1}), ("solver", {"rank": 2}),
    ("scenario", SolverConfig()), ("solver", None),
])
def test_experiment_config_nested_config_of_wrong_type_is_named_error(name, value):
    kind = {"scenario": "ScenarioConfig", "solver": "SolverConfig"}[name]
    with pytest.raises(ValueError, match=f"ExperimentConfig field '{name}' must be a {kind}"):
        ExperimentConfig(**{name: value})


def test_unhashable_sweep_value_is_named_error():
    with pytest.raises(ValueError, match=re.escape("sweep value [0.5] for 'p_obs': "
                                                   "ScenarioConfig field 'p_obs'")):
        tiny_experiment(sweep=(("p_obs", ([0.5],)),))


@pytest.mark.parametrize("jobs", [0, -1])
def test_sweep_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
        run_sweep(tiny_experiment(), jobs=jobs)


def test_sweep_pool_has_at_most_one_worker_per_task(monkeypatch):
    # A stand-in pool that records its size and maps serially: no worker
    # process is ever started, whatever jobs asks for.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = tiny_experiment(trials=3)
    _, trials_many = run_sweep(cfg, jobs=1000)
    _, trials_two = run_sweep(cfg, jobs=2)
    _, trials_serial = run_sweep(cfg, jobs=1)
    assert sizes == [3, 2]
    for a, b, c in zip(trials_many, trials_two, trials_serial):
        assert _untimed(a) == _untimed(b) == _untimed(c)


def test_experiment_config_normalises_sweep_and_methods_once():
    cfg = ExperimentConfig.from_dict({
        "scenario": {"n_pu": 2, "n_su": 6, "t_slots": 30},
        "trials": 1, "gamma_window": 20,
        "sweep": [["p_obs", [1, 0.5]]], "methods": ["wnmf"],
    })
    assert cfg.sweep == (("p_obs", (1.0, 0.5)),)
    assert isinstance(cfg.sweep[0][1][0], float)
    assert cfg.methods == ("wnmf",)
    assert ExperimentConfig.from_dict({"sweep": None}).sweep == ()
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_sweep_trials_come_back_in_task_order():
    cfg = tiny_experiment(trials=3, sweep=(("p_obs", (0.9, 0.5)), ("noise_var", (1e-6,))))
    expected = [
        (param, value, trial, method)
        for param, values in cfg.sweep for value in values
        for trial in range(cfg.trials) for method in cfg.methods
    ]
    summary, trials = run_sweep(cfg, jobs=2)
    assert [(r.sweep_param, r.sweep_value, r.trial, r.method) for r in trials] == expected
    assert [(r.sweep_param, r.sweep_value, r.method) for r in summary] == [
        (param, value, method) for param, value, trial, method in expected if trial == 0]
    assert all(r.trials_ok == cfg.trials for r in summary)


def test_trial_records_how_each_phase_stopped_and_its_times():
    cfg = tiny_experiment(trials=1, solver=SolverConfig(beta=5e-3, rank=2, max_iters=60,
                                                        rel_tol=1e-4))
    scen_seed, init_seed = bench.derive_trial_seeds(cfg.scenario.seed, 0)
    s = bench.generate_scenario(dataclasses.replace(cfg.scenario, seed=scen_seed)).observed
    for res in run_trial(cfg, 0):
        solver_cfg = dataclasses.replace(cfg.solver, init_seed=init_seed,
                                         beta=cfg.solver.beta if res.method == "pcnmf" else 0.0)
        pair, trace = bench.solve(s.window(0, cfg.gamma_window), solver_cfg)
        _, infer_trace = bench.infer_activations(s, pair.gains, solver_cfg)
        assert (res.iterations, res.learn_stop, res.infer_iterations, res.infer_stop) == (
            trace.iterations, trace.stop_reason, infer_trace.iterations, infer_trace.stop_reason)
        assert min(res.simulate_s, res.learn_s, res.infer_s, res.score_s) >= 0
        assert res.learn_s + res.infer_s == pytest.approx(res.seconds, rel=1e-9)


def test_trial_builds_one_learning_window_for_every_method(monkeypatch):
    # Both methods learn their gains on the same window of the trial's
    # scenario, so run_trial slices it once and hands it to each method.
    cfg = tiny_experiment(trials=1)
    truth = scenario_of(cfg, 0)
    s, init_seed = truth.observed, bench.derive_trial_seeds(cfg.scenario.seed, 0)[1]
    s_window = s.window(0, cfg.gamma_window)
    calls, window = [], MaskedMatrix.window
    monkeypatch.setattr(MaskedMatrix, "window",
                        lambda self, *args: calls.append(args) or window(self, *args))
    results = run_trial(cfg, 0)
    assert calls == [(0, cfg.gamma_window)]
    assert [r.method for r in results] == ["pcnmf", "wnmf"]
    for res in results:
        solver_cfg = dataclasses.replace(cfg.solver, init_seed=init_seed,
                                         beta=cfg.solver.beta if res.method == "pcnmf" else 0.0)
        pair, trace = bench.solve(s_window, solver_cfg)
        pair_full, infer_trace = bench.infer_activations(s, pair.gains, solver_cfg)
        s_hat = pair_full.gains @ pair_full.activations
        assert (res.rmse, res.rmse_pooled, res.fit, res.iterations, res.learn_stop,
                res.infer_iterations, res.infer_stop, res.failed) == (
            rmse_missing(s_hat, truth.s_clean, s.mask),
            rmse_missing_pooled(s_hat, truth.s_clean, s.mask),
            bench.weighted_fit(s, pair_full), trace.iterations, trace.stop_reason,
            infer_trace.iterations, infer_trace.stop_reason, False)


def test_scenario_overflow_is_a_failed_row_for_every_method(tmp_path):
    # At alpha = 255 the path gains (d0 / d)^alpha of this 1 x 1 area overflow
    # float64 on every seed; at alpha = 2.5 they do not. Both sweep cells are
    # valid, so the overflow is a property of the trial, not of the config.
    cfg = {"scenario": {"n_su": 6, "area_side": 1.0, "d0": 10.0, "t_slots": 30},
           "solver": {"rank": 2, "max_iters": 20}, "trials": 2, "gamma_window": 20,
           "sweep": [["alpha", [2.5, 255.0]]]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    tables = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert main(["benchmark", "--config", str(tmp_path / "cfg.json"), "--jobs", str(jobs),
                     "--no-timing", "--out", str(out)]) == 0
        rows = read_trials_csv(out / "trials.csv")
        assert [(r["sweep_value"], r["failed"]) for r in rows] == [
            (alpha, alpha == 255.0) for alpha in (2.5, 255.0) for _ in range(4)]
        for r in rows[4:]:
            assert r["error"] == f"scenario seed {r['seed']}: path gain overflows float64"
            assert (r["iterations"], r["learn_stop"], r["infer_iterations"], r["infer_stop"]) \
                == (0, "", 0, "")
        summary = (out / "summary.csv").read_text().splitlines()[1:]
        assert [line.split(",")[5:7] for line in summary] == [["2", "0"]] * 2 + [["0", "2"]] * 2
        tables.append([(out / name).read_bytes() for name in ("summary.csv", "trials.csv")])
    assert tables[0] == tables[1]


def test_failed_method_row_holds_metric_defaults(monkeypatch):
    def exploding_solve(s, cfg, **kwargs):
        raise NumericFailureError(7)

    monkeypatch.setattr(bench, "solve", exploding_solve)
    for res in run_trial(tiny_experiment(), 2, "p_obs", 0.5):
        assert (res.sweep_param, res.sweep_value, res.trial) == ("p_obs", 0.5, 2)
        assert res.failed and res.error == "non-finite iterate at iteration 7"
        assert res.iterations == 0 and res.seconds >= 0
        assert (res.learn_stop, res.infer_iterations, res.infer_stop) == ("", 0, "")
        assert all(np.isnan(v) for v in (res.rmse, res.rmse_pooled, res.fit,
                                          res.transitions))


# ----------------------------------------------------------------- sweep rule

@pytest.mark.parametrize("param", [
    "seed", "solver.init_seed", "a_range", "bogus", "solver.bogus", "trials",
    "scenario.p_obs", None,
])
def test_unsupported_sweep_parameter_is_named_error(param):
    with pytest.raises(ValueError, match=re.escape(f"unsupported sweep parameter {param!r}")):
        tiny_experiment(sweep=((param, (1,)),))


def test_sweep_cell_that_breaks_the_window_is_refused_before_any_trial(tmp_path, capsys,
                                                                        monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(bench, "generate_scenario", no_trial)
    cfg = {**tiny_experiment().to_dict(), "sweep": [["t_slots", [10]]]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["benchmark", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "out")]) == 1
    assert ("sweep value 10 for 't_slots': gamma_window must be in [1, t_slots]"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("param, value, named", [
    ("seed", 5, "unsupported sweep parameter 'seed'"),
    ("t_slots", 10, "sweep value 10 for 't_slots': gamma_window must be in [1, t_slots]"),
    ("bogus", 1.0, "unsupported sweep parameter 'bogus'"),
    ("p_obs", None, "sweep value None for 'p_obs': ScenarioConfig field 'p_obs' must be "
                    "finite, got None"),
    ("none", 0.5, "unsupported sweep parameter 'none'"),
    ("n_su", 6.0, "sweep value 6.0 for 'n_su': ScenarioConfig field 'n_su' must be an int"),
])
def test_run_trial_applies_the_sweep_rule(monkeypatch, param, value, named):
    monkeypatch.setattr(bench, "generate_scenario", None)  # no trial may start
    with pytest.raises(ValueError, match=re.escape(named)):
        run_trial(tiny_experiment(), 0, param, value)


def _untimed(row, **fields):
    """row with every timing cell zeroed, and fields replaced."""
    return dataclasses.replace(row, seconds=0, simulate_s=0, learn_s=0, infer_s=0, score_s=0,
                               **fields)


def _rows_of_cell(rows, value):
    """The rows of the sweep cell at value, labelled as unswept and with timing zeroed."""
    return [_untimed(r, sweep_param="none", sweep_value=None)
            for r in rows if r.sweep_value == value]


def test_int_sweep_keeps_its_ints_and_runs_the_cell(tmp_path):
    cfg = tiny_experiment(trials=2, sweep=(("n_su", (6, 8)),))
    assert cfg.sweep == (("n_su", (6, 8)),)
    assert all(type(v) is int for v in cfg.sweep[0][1])
    summary, trials = run_sweep(cfg)
    write_benchmark_outputs(tmp_path, summary, trials, include_timing=False)
    lines = (tmp_path / "trials.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:2] for line in lines] == [["n_su", "6"]] * 4 + [["n_su", "8"]] * 4
    unswept = dataclasses.replace(cfg, sweep=(), scenario=dataclasses.replace(cfg.scenario,
                                                                               n_su=8))
    expected = [_untimed(r) for t in range(2) for r in run_trial(unswept, t)]
    assert _rows_of_cell(trials, 8) == expected


def test_float_sweep_stores_floats_and_repeats_by_value():
    cfg = tiny_experiment(sweep=(("p_obs", (1,)),))
    assert cfg.sweep == (("p_obs", (1.0,)),) and type(cfg.sweep[0][1][0]) is float
    with pytest.raises(ValueError, match=re.escape("sweep value 1.0 for 'p_obs' is repeated")):
        tiny_experiment(sweep=(("p_obs", (1, 1.0)),))


def test_solver_beta_sweep_moves_only_pcnmf():
    base = tiny_experiment(trials=2)
    cfg = dataclasses.replace(base, sweep=(("solver.beta", (0.0, 5e-3)),),
                              solver=dataclasses.replace(base.solver, beta=0.5))
    assert cfg.sweep == (("solver.beta", (0.0, 5e-3)),)
    _, trials = run_sweep(cfg)
    assert {r.sweep_param for r in trials} == {"solver.beta"}
    wnmf = [[r for r in _rows_of_cell(trials, cell) if r.method == "wnmf"] for cell in (0.0, 5e-3)]
    assert wnmf[0] == wnmf[1] and len(wnmf[0]) == 2
    for beta in (0.0, 5e-3):
        unswept = dataclasses.replace(cfg, sweep=(),
                                      solver=dataclasses.replace(cfg.solver, beta=beta))
        assert [r for r in _rows_of_cell(trials, beta) if r.method == "pcnmf"] == [
            _untimed(r) for t in range(2) for r in run_trial(unswept, t) if r.method == "pcnmf"]


@pytest.mark.parametrize("call, named", [
    (lambda: run_sweep(tiny_experiment(), jobs=1.5), "jobs must be an int, got 1.5"),
    (lambda: run_sweep(tiny_experiment(), jobs=True), "jobs must be an int, got True"),
    (lambda: run_trial(tiny_experiment(), 1.5), "trial_index must be an int, got 1.5"),
    (lambda: run_trial(tiny_experiment(), -1), "trial_index must be >= 0, got -1"),
    (lambda: bench.derive_trial_seeds(True, 0), "master_seed must be an int, got True"),
    (lambda: bench.derive_trial_seeds(-1, 0), "master_seed must be >= 0, got -1"),
    (lambda: bench.derive_trial_seeds(0, -2), "trial_index must be >= 0, got -2"),
    (lambda: bench.derive_trial_seeds(0, "1"), "trial_index must be an int, got '1'"),
])
def test_integer_argument_of_the_trial_api_is_named_error(call, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        call()


_TRIALS_HEADER = ",".join(f.name for f in dataclasses.fields(bench.TrialResult))
_TRIALS_ROW = ("p_obs,0.5,1,pcnmf,7,0.25,0.5,0.125,40,1.5,3.0,0,"
               ",max_iters,30,rel_tol,0.5,1.0,0.5,0.0")


@pytest.mark.parametrize("text, message", [
    (f"{_TRIALS_HEADER},extra\n{_TRIALS_ROW},x\n", "unexpected trials.csv header"),
    ("sweep_param,trial\np_obs,1\n", "unexpected trials.csv header"),
    (f"{_TRIALS_HEADER}\n{_TRIALS_ROW}\np_obs,0.5,1\n", "line 3 has 3 fields, expected 20"),
    (f"{_TRIALS_HEADER}\n{_TRIALS_ROW.replace(',40,', ',4x,')}\n",
     "line 2, column 'iterations': invalid literal for int"),
    (f"{_TRIALS_HEADER}\n{_TRIALS_ROW.replace(',3.0,0,', ',3.0,2,')}\n",
     "line 2, column 'failed': expected 0 or 1, got '2'"),
    (f"{_TRIALS_HEADER}\n{_TRIALS_ROW.replace(',3.0,0,', ',3.0,-1,')}\n",
     "line 2, column 'failed': expected 0 or 1, got '-1'"),
    (f"{_TRIALS_HEADER}\n{_TRIALS_ROW.replace('p_obs,', 'bogus,')}\n",
     "line 2, column 'sweep_value': unsupported sweep parameter 'bogus'"),
    (f"{_TRIALS_HEADER}\n{_TRIALS_ROW.replace('p_obs,0.5,', 'none,0.5,')}\n",
     "line 2, column 'sweep_value': unsupported sweep parameter 'none'"),
    (f"{_TRIALS_HEADER}\n{_TRIALS_ROW.replace('p_obs,0.5,', 'n_su,6.0,')}\n",
     "line 2, column 'sweep_value': invalid literal for int"),
    (f"{_TRIALS_HEADER}\n{_TRIALS_ROW.replace('p_obs,0.5,', 'p_obs,,')}\n",
     "line 2, column 'sweep_value': could not convert string to float"),
    (f"{_TRIALS_HEADER}\n{_TRIALS_ROW.replace(',40,', ',4_0,')}\n",
     "line 2, column 'iterations': expected an int as str writes it, got '4_0'"),
    (f"{_TRIALS_HEADER}\n{_TRIALS_ROW.replace(',7,', ', 7,')}\n",
     "line 2, column 'seed': expected an int as str writes it, got ' 7'"),
    (f"{_TRIALS_HEADER}\n{_TRIALS_ROW.replace(',1,pcnmf,', ',+1,pcnmf,')}\n",
     "line 2, column 'trial': expected an int as str writes it, got '\\+1'"),
    (f"{_TRIALS_HEADER}\n{_TRIALS_ROW.replace('p_obs,0.5,', 'n_su,6_0,')}\n",
     "line 2, column 'sweep_value': expected an int as str writes it, got '6_0'"),
], ids=["extra-column", "missing-columns", "short-row", "bad-int", "bool-2", "bool-minus-1",
        "sweep-bogus", "sweep-none-with-value", "sweep-int-as-float", "sweep-float-empty",
        "int-underscore", "int-space", "int-plus", "sweep-int-underscore"])
def test_read_trials_csv_malformed_is_named_error(tmp_path, text, message):
    path = tmp_path / "trials.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_trials_csv(path)


@pytest.mark.parametrize("param", sorted(bench._SWEEPABLE))
def test_read_trials_csv_types_sweep_value_by_the_swept_field(tmp_path, param):
    # 3 for an int field, 3.0 for a float one: a float with an integral value stays a float.
    value = 3 if bench._SWEEPABLE[param][1].type == "int" else 3.0
    write_benchmark_outputs(tmp_path, [], [bench.TrialResult(param, value, 0, "pcnmf", 7)])
    parsed = read_trials_csv(tmp_path / "trials.csv")[0]["sweep_value"]
    assert parsed == value and type(parsed) is type(value)


def test_read_trials_csv_types_every_field(tmp_path):
    rows = [
        bench.TrialResult("p_obs", 0.5, 1, "pcnmf", 7, 0.25, 0.5, 1e-300, 40,
                          1.5, 3.0, learn_stop="max_iters", infer_iterations=30,
                          infer_stop="rel_tol", simulate_s=0.5, learn_s=1.0, infer_s=0.5,
                          score_s=0.0),
        bench.TrialResult("none", None, 0, "wnmf", 9, seconds=0.125, failed=True,
                          error="non-finite iterate at iteration 3"),
    ]
    write_benchmark_outputs(tmp_path, [], rows)
    parsed = read_trials_csv(tmp_path / "trials.csv")
    assert parsed[0] == dataclasses.asdict(rows[0])
    assert [type(v) for v in parsed[1].values()] == [
        str, float, int, str, int, float, float, float, int, float, float, bool, str,
        str, int, str, float, float, float, float]
    assert np.isnan(parsed[1]["sweep_value"]) and parsed[1]["failed"] is True
