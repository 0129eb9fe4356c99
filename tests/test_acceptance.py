"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The two Monte Carlo fixtures (the full-scale comparison run and the rank-3
piecewise-constancy run) are shared across criteria to keep the suite fast.
"""

import time
import warnings

import numpy as np
import pytest
from scipy import stats

from pcnmf import (
    ExperimentConfig,
    MaskedMatrix,
    ScenarioConfig,
    SolverConfig,
    activation_rate_for_duty,
    fit_gradient,
    generate_scenario,
    markov_activity,
    run_sweep,
    solve,
    weighted_fit,
    FactorPair,
)
from pcnmf.cli import main as cli_main
from pcnmf.solver import GUARD
from steps import fading_step


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number}] {status}: {name} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# ----------------------------------------------------------- shared MC runs

@pytest.fixture(scope="module")
def paper_run():
    """Full-scale comparison: 3 PUs, 20 SUs, T=600, window 300, K=5, 50 trials."""
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(seed=20250810),
        solver=SolverConfig(beta=5e-3, epsilon=1e-6, rank=5,
                            max_iters=1000, rel_tol=1e-8),
        trials=50,
        gamma_window=300,
    )
    start = time.perf_counter()
    summary, trials = run_sweep(cfg, jobs=2)
    return summary, trials, time.perf_counter() - start


@pytest.fixture(scope="module")
def rank3_run():
    """Same environment with K equal to the true transmitter count, 20 trials."""
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(seed=314159),
        solver=SolverConfig(beta=5e-3, epsilon=1e-6, rank=3,
                            max_iters=1000, rel_tol=1e-8),
        trials=20,
        gamma_window=300,
    )
    summary, trials = run_sweep(cfg, jobs=2)
    return summary, trials


# ------------------------------------------------------------- criterion 1

def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    S = rng.uniform(0.2, 2.0, size=(10, 8))
    s = MaskedMatrix(S, np.ones_like(S))
    cfg = SolverConfig(beta=0.0, epsilon=1e-6, rank=3, max_iters=50,
                       rel_tol=0.0, init_seed=42)
    _, trace = solve(s, cfg, record_factors=True)

    # independently coded classical multiplicative-update NMF, run in
    # lockstep from the same initialization
    G = trace.initial.gains.copy()
    P = trace.initial.activations.copy()
    worst = 0.0
    for it in range(50):
        P = P * (G.T @ S) / (G.T @ (G @ P))
        G = G * (S @ P.T) / ((G @ P) @ P.T + GUARD)
        norms = np.sqrt(np.sum(G * G, axis=0))
        G, P = G / norms, P * norms[:, None]
        snap = trace.iterates[it].pair
        worst = max(worst,
                    float(np.max(np.abs(snap.gains - G))),
                    float(np.max(np.abs(snap.activations - P))))
    elapsed = time.perf_counter() - start
    _report(1, "oracle equivalence at beta=0, full mask",
            worst <= 1e-10 and elapsed < 1.0,
            f"(max deviation {worst:.2e} over 50 iterations, {elapsed:.2f}s)")


# ------------------------------------------------------------- criterion 2

def _direct_penalized_surrogate(s, gains, p_new, p_ref, beta, epsilon):
    """Penalized per-slot surrogate evaluated directly from its definition."""
    k, t_slots = p_ref.shape
    y = np.zeros((k, t_slots + 1))
    for j in range(k):
        for t in range(1, t_slots):
            d = p_ref[j, t] - p_ref[j, t - 1]
            y[j, t] = 1.0 / (d * d + epsilon)
    values = []
    for t in range(t_slots):
        w = s.mask[:, t]
        resid = w * (s.values[:, t] - gains @ p_ref[:, t])
        c_ref = 0.5 * float(resid @ resid)
        grad = -(gains.T @ (w * s.values[:, t] - w * (gains @ p_ref[:, t])))
        q = gains.T @ (w * (gains @ p_ref[:, t]))
        d = p_new[:, t] - p_ref[:, t]
        quad = c_ref + float(d @ grad) + 0.5 * float((q / p_ref[:, t]) @ (d * d))
        pen = 0.0
        for j in range(k):
            left = p_ref[j, t - 1] if t >= 1 else 0.0
            right = p_ref[j, t + 1] if t + 1 < t_slots else 0.0
            yl = y[j, t]
            yr = y[j, t + 1]
            pen += yl * (p_new[j, t] - left) ** 2
            pen += yr * (right - p_new[j, t]) ** 2
        values.append(quad + beta * pen)
    return np.array(values)


def test_criterion_2_mm_monotonicity():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    betas = (0.0, 5e-3, 1.0)
    worst_gamma = worst_p = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for i in range(100):
            n_r = int(rng.integers(2, 21))
            t = int(rng.integers(2, 101))
            k = int(rng.integers(1, 6))
            scale = float(rng.choice([1.0, 50.0]))
            mask = (rng.random((n_r, t)) < rng.uniform(0.3, 1.0)).astype(float)
            s = MaskedMatrix(rng.uniform(0.0, scale, (n_r, t)), mask)
            beta = betas[i % 3]
            cfg = SolverConfig(beta=beta, rank=k, max_iters=10, rel_tol=0.0,
                               init_seed=i)
            _, trace = solve(s, cfg, record_factors=True)
            prev = trace.initial
            for rec, snap in zip(trace.records, trace.iterates):
                fit_after_p = weighted_fit(s, FactorPair(prev.gains, snap.activations_updated))
                worst_gamma = max(worst_gamma, rec.fit - fit_after_p)
                g_before = _direct_penalized_surrogate(
                    s, prev.gains, prev.activations, prev.activations,
                    beta, cfg.epsilon)
                g_after = _direct_penalized_surrogate(
                    s, prev.gains, snap.activations_updated, prev.activations,
                    beta, cfg.epsilon)
                worst_p = max(worst_p, float(np.max(g_after - g_before)))
                prev = snap.pair
    elapsed = time.perf_counter() - start
    _report(2, "MM monotonicity over 100 random instances",
            worst_gamma <= 1e-9 and worst_p <= 1e-9 and elapsed < 30.0,
            f"(max gains-step fit increase {worst_gamma:.2e}, "
            f"max surrogate increase {worst_p:.2e}, {elapsed:.1f}s)")


# ------------------------------------------------------------- criterion 3

def test_criterion_3_gradient_check():
    rng = np.random.default_rng(33)
    n_r, k, t = 6, 3, 6
    mask = (rng.random((n_r, t)) < 0.7).astype(float)
    s = MaskedMatrix(rng.uniform(0.2, 2.0, (n_r, t)), mask)
    gains = rng.uniform(0.2, 1.5, (n_r, k))
    step = 1e-6
    worst = 0.0
    for _ in range(20):
        acts = rng.uniform(0.3, 2.0, (k, t))
        grad = fit_gradient(s, gains, acts)
        fd = np.zeros_like(grad)
        for j in range(k):
            for tt in range(t):
                plus = acts.copy()
                minus = acts.copy()
                plus[j, tt] += step
                minus[j, tt] -= step
                fd[j, tt] = (
                    weighted_fit(s, FactorPair(gains, plus))
                    - weighted_fit(s, FactorPair(gains, minus))
                ) / (2 * step)
        worst = max(worst, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
    _report(3, "activation gradient vs central finite differences",
            worst < 1e-5, f"(max relative error {worst:.2e} over 20 points)")


# ------------------------------------------------------------- criterion 4

def test_criterion_4_exact_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    n_r, k, t = 10, 3, 60
    gains_true = rng.uniform(0.5, 1.5, size=(n_r, k))
    p_true = np.zeros((k, t))
    for j in range(k):
        edges = np.sort(rng.choice(np.arange(5, t - 5), size=3, replace=False))
        for seg in np.split(np.arange(t), edges):
            p_true[j, seg] = rng.uniform(0.5, 2.0)
    S = gains_true @ p_true
    s = MaskedMatrix(S, np.ones_like(S))
    cfg = SolverConfig(beta=0.0, rank=3, max_iters=8000, rel_tol=0.0, init_seed=3)
    pair, trace = solve(s, cfg)
    fit = trace.records[-1].fit
    rel = np.linalg.norm(pair.gains @ pair.activations - S) / np.linalg.norm(S)
    elapsed = time.perf_counter() - start
    _report(4, "exact recovery of piecewise-constant rank-3 data",
            fit < 1e-6 and rel < 1e-3 and elapsed < 5.0,
            f"(fit {fit:.2e}, relative Frobenius error {rel:.2e}, {elapsed:.1f}s)")


# ------------------------------------------------------------- criterion 5

def test_criterion_5_full_scale_comparison(paper_run):
    summary, trials, elapsed = paper_run
    by_trial = {}
    for r in trials:
        by_trial.setdefault(r.trial, {})[r.method] = r
    diffs = []
    for records in by_trial.values():
        pc, wn = records["pcnmf"], records["wnmf"]
        assert not pc.failed and not wn.failed
        diffs.append(pc.rmse - wn.rmse)
    diffs = np.array(diffs)
    mean = diffs.mean()
    se = diffs.std(ddof=1) / np.sqrt(diffs.size)
    t_crit = stats.t.ppf(0.95, diffs.size - 1)
    upper = mean + t_crit * se
    means = {row.method: row.mean_rmse for row in summary}
    ok = (means["pcnmf"] < means["wnmf"]) and mean < 0 and upper < 0
    _report(5, "missing-entry RMSE: penalized < plain weighted NMF",
            ok and elapsed < 300.0,
            f"(mean RMSE {means['pcnmf']:.3e} vs {means['wnmf']:.3e}, "
            f"paired diff {mean:.3e}, one-sided 95% upper bound {upper:.3e}, "
            f"{diffs.size} trials, {elapsed:.0f}s)")


# ------------------------------------------------------------- criterion 6

def test_criterion_6_piecewise_constancy(rank3_run):
    _, trials = rank3_run
    pc = np.array([r.transitions for r in trials if r.method == "pcnmf"])
    wn = np.array([r.transitions for r in trials if r.method == "wnmf"])
    assert np.isfinite(pc).all() and np.isfinite(wn).all()
    _report(6, "transition counts: penalized < plain weighted NMF",
            pc.mean() < wn.mean(),
            f"(mean transitions {pc.mean():.1f} vs {wn.mean():.1f} "
            f"over {pc.size} trials)")


# ------------------------------------------------------------- criterion 7

def test_criterion_7_relative_cost(paper_run):
    summary, _, _ = paper_run
    secs = {row.method: row.mean_seconds for row in summary}
    ratio = secs["pcnmf"] / secs["wnmf"]
    _report(7, "penalized solver within 2x of plain weighted NMF wall time",
            ratio < 2.0,
            f"(mean {secs['pcnmf']:.3f}s vs {secs['wnmf']:.3f}s, ratio {ratio:.2f})")


# ------------------------------------------------------------- criterion 8

def test_criterion_8_simulator_statistics():
    a = 0.1
    b = activation_rate_for_duty(0.3, a)
    occupancy = markov_activity(a, b, 100_000, np.random.default_rng(2)).mean()

    rng = np.random.default_rng(1)
    h = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)
    total = 0.0
    for _ in range(100_000):
        h = fading_step(h, 0.5, rng)
        total += abs(h) ** 2
    moment = total / 100_000

    truth = generate_scenario(ScenarioConfig(seed=77))
    miss = 1.0 - truth.observed.mask.mean()
    sigma = np.sqrt(0.3 * 0.7 / truth.observed.mask.size)

    ok = (abs(occupancy - 0.3) <= 0.02
          and abs(moment - 1.0) <= 0.03
          and abs(miss - 0.3) <= 3 * sigma)
    _report(8, "simulator statistics (occupancy, fading moment, miss rate)",
            ok,
            f"(occupancy {occupancy:.4f}, fading second moment {moment:.4f}, "
            f"miss rate {miss:.4f} vs 0.3 +/- {3 * sigma:.4f})")


# ------------------------------------------------------------- criterion 9

def test_criterion_9_benchmark_determinism(tmp_path):
    import json

    cfg = {
        "scenario": {"n_pu": 2, "n_su": 8, "t_slots": 40, "seed": 99,
                     "noise_var": 1e-8},
        "solver": {"rank": 2, "max_iters": 40, "beta": 5e-3},
        "trials": 4,
        "gamma_window": 25,
        "sweep": [["noise_var", [1e-8, 1e-6]]],
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        rc = cli_main(["benchmark", "--config", str(cfg_path), "--jobs", "2",
                       "--no-timing", "--out", str(out)])
        assert rc == 0
        outs.append((out / "summary.csv").read_bytes())
    _report(9, "byte-identical summary.csv across parallel runs",
            outs[0] == outs[1],
            f"({len(outs[0])} bytes each)")
