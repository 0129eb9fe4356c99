"""Scenario-generator tests: geometry, fading, activity, composition, statistics."""

import json
import multiprocessing
import os
import re
import signal
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import reference_simulate as ref

from pcnmf import (
    ExperimentConfig,
    ScenarioConfig,
    activation_rate_for_duty,
    fading_step,
    generate_scenario,
    markov_activity,
    path_gain,
    place_network,
    save_dense_csv,
    save_masked_csv,
    save_scenario,
)
from pcnmf import simulate
from pcnmf.matrices import write_json


def _always_on_cfg(**overrides):
    # duty ~ 1 with vanishing transition rates pins the chain at "active"
    base = dict(seed=0, n_pu=1, n_su=5, t_slots=50, eta=1.0, noise_var=0.0,
                p_obs=1.0, duty=0.999, a_range=(1e-12, 1e-12))
    base.update(overrides)
    return ScenarioConfig(**base)


# ------------------------------------------------------------------- geometry

def test_place_network_degenerate_area():
    cfg = ScenarioConfig(area_side=0.0, n_pu=2, n_su=3, t_slots=5)
    pu, su = place_network(cfg, np.random.default_rng(0))
    assert np.array_equal(pu, np.zeros((2, 2)))
    assert np.array_equal(su, np.zeros((3, 2)))


def test_place_network_deterministic():
    cfg = ScenarioConfig(n_pu=4, n_su=6, t_slots=5)
    a = place_network(cfg, np.random.default_rng(9))
    b = place_network(cfg, np.random.default_rng(9))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_place_network_uniform_mean():
    cfg = ScenarioConfig(n_pu=5000, n_su=5000, t_slots=1)
    pu, su = place_network(cfg, np.random.default_rng(10))
    pts = np.vstack([pu, su])
    sigma = (100.0 / np.sqrt(12.0)) / np.sqrt(len(pts))
    assert np.all(np.abs(pts.mean(axis=0) - 50.0) < 3 * sigma)


# ------------------------------------------------------------------ path gain

def test_path_gain_reference_distance():
    cfg = ScenarioConfig()
    assert path_gain(cfg.d0, cfg) == 1.0


def test_path_gain_power_law():
    cfg = ScenarioConfig(alpha=2.0)
    assert path_gain(10 * cfg.d0, cfg) == pytest.approx(0.01, abs=1e-15)


def test_path_gain_zero_distance_clamped():
    cfg = ScenarioConfig()
    assert path_gain(0.0, cfg) == 1.0


@pytest.mark.parametrize("d", [-1.0, float("nan"), float("inf"), [[0.5, -0.5]], [1.0, np.nan]],
                         ids=["negative", "nan", "inf", "negative-entry", "nan-entry"])
def test_path_gain_refuses_a_distance_that_is_not_finite_and_nonnegative(d):
    with pytest.raises(ValueError, match=r"^distances must be finite and >= 0$"):
        path_gain(d, ScenarioConfig())


def test_path_gain_past_float64_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # d / d0 overflows: the gain is the power taken through logs, here 10^-0.31
        far = path_gain([1.0, 0.0], ScenarioConfig(d0=1e-310, alpha=1e-3))
        assert far[0] == pytest.approx(10 ** -0.31, rel=1e-12) and far[1] == 1.0
        assert path_gain(1.0, ScenarioConfig(d0=1e3, alpha=400.0)) == np.inf


def test_path_gain_matches_formula_on_grid():
    cfg = ScenarioConfig(d0=0.05, alpha=3.1)
    d = np.linspace(0.01, 40.0, 57)
    assert np.allclose(path_gain(d, cfg), (d / 0.05) ** (-3.1), rtol=1e-14)
    gains = path_gain(d, cfg)
    assert (np.diff(gains) < 0).all()


# --------------------------------------------------------------------- fading

def test_fading_step_frozen_channel():
    h = 0.3 - 0.7j
    assert fading_step(h, 1.0, np.random.default_rng(0)) == h


def test_fading_step_memoryless_is_fresh_draw():
    out = fading_step(123.0 + 0j, 0.0, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    nu = (rng.standard_normal(()) + 1j * rng.standard_normal(())) / np.sqrt(2.0)
    assert out == nu


def test_fading_stationary_second_moment():
    rng = np.random.default_rng(1)
    h = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)
    n = 100_000
    total = 0.0
    for _ in range(n):
        h = fading_step(h, 0.5, rng)
        total += abs(h) ** 2
    assert 0.97 <= total / n <= 1.03


# ------------------------------------------------------------ markov activity

def test_markov_absorbing_all_inactive():
    # a_j = b_j = 0 has no stationary law: the chain starts inactive and stays so.
    seq = markov_activity(0.0, 0.0, 20, np.random.default_rng(0))
    assert np.array_equal(seq, np.zeros(20, dtype=np.int64))


def test_markov_absorbing_all_active():
    # a_j = 0 never leaves the active state, whose stationary mass is then 1:
    # the chain starts active and stays so.
    seq = markov_activity(0.0, 0.3, 20, np.random.default_rng(0))
    assert np.array_equal(seq, np.ones(20, dtype=np.int64))


@pytest.mark.parametrize("a_j, b_j", [(0.3, 0.1), (0.1, 0.3), (0.5, 0.5), (1.0, 0.0)])
def test_markov_first_state_follows_stationary_law(a_j, b_j):
    rng = np.random.default_rng(7)
    first = [markov_activity(a_j, b_j, 1, rng)[0] for _ in range(4000)]
    assert abs(np.mean(first) - b_j / (a_j + b_j)) <= 0.03


def test_markov_rate_from_duty():
    assert activation_rate_for_duty(0.3, 0.07) == pytest.approx(0.03, abs=1e-15)


def test_markov_ergodic_occupancy():
    a = 0.1
    b = activation_rate_for_duty(0.3, a)
    seq = markov_activity(a, b, 100_000, np.random.default_rng(2))
    assert 0.28 <= seq.mean() <= 0.32


def test_markov_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        markov_activity(1.5, 0.1, 10, np.random.default_rng(0))


@pytest.mark.parametrize("call, named", [
    (lambda: fading_step(0.1 + 0j, 1.5, np.random.default_rng(0)),
     "eta must be in [0, 1], got 1.5"),
    (lambda: fading_step(0.1 + 0j, -0.1, np.random.default_rng(0)),
     "eta must be in [0, 1], got -0.1"),
    (lambda: fading_step(0.1 + 0j, True, np.random.default_rng(0)),
     "eta must be finite, got True"),
    (lambda: fading_step(0.1 + 0j, "0.5", np.random.default_rng(0)),
     "eta must be finite, got '0.5'"),
    (lambda: markov_activity(True, 0.5, 5, np.random.default_rng(0)),
     "a_j must be finite, got True"),
    (lambda: markov_activity(0.1, True, 5, np.random.default_rng(0)),
     "b_j must be finite, got True"),
    (lambda: markov_activity("0.1", 0.5, 5, np.random.default_rng(0)),
     "a_j must be finite, got '0.1'"),
    (lambda: activation_rate_for_duty(1.0, 0.1), "duty must be in (0, 1), got 1.0"),
    (lambda: activation_rate_for_duty(0.0, 0.1), "duty must be in (0, 1), got 0.0"),
    (lambda: activation_rate_for_duty("0.3", 0.1), "duty must be finite, got '0.3'"),
    (lambda: activation_rate_for_duty(0.3, -0.5), "a_j must be in [0, 1], got -0.5"),
    (lambda: activation_rate_for_duty(0.3, float("nan")), "a_j must be finite, got nan"),
    (lambda: activation_rate_for_duty(0.3, 2.0), "a_j must be in [0, 1], got 2.0"),
    (lambda: activation_rate_for_duty(0.3, True), "a_j must be finite, got True"),
    (lambda: activation_rate_for_duty(0.3, "0.1"), "a_j must be finite, got '0.1'"),
], ids=["fading-eta-high", "fading-eta-low", "fading-eta-bool", "fading-eta-str",
        "markov-a-bool", "markov-b-bool", "markov-a-str",
        "duty-one", "duty-zero", "duty-str",
        "a_j-negative", "a_j-nan", "a_j-above-one", "a_j-bool", "a_j-str"])
def test_scalar_that_scenario_config_refuses_is_named_error(call, named):
    # The public simulator helpers hold their scalars to the config's number
    # rule: a real number, not a bool or a str, in range.
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        call()


@pytest.mark.parametrize("t_slots", [0, -3, 2.5, True, "10", None])
def test_markov_rejects_bad_t_slots(t_slots):
    rule = "must be >= 1" if type(t_slots) is int else "must be an int"
    with pytest.raises(ValueError, match=f"^{re.escape(f't_slots {rule}, got {t_slots!r}')}$"):
        markov_activity(0.1, 0.1, t_slots, np.random.default_rng(0))


def test_markov_and_powers_match_reference_on_random_chains():
    # The run levels are drawn in one call; the chain and the levels must give
    # the reference's per-slot arrays and leave the streams where the
    # reference leaves them.
    pick = np.random.default_rng(2024)
    for case in range(300):
        a_j, b_j = (float(pick.choice([0.0, 1.0, pick.uniform()])) for _ in range(2))
        t_slots = int(pick.integers(1, 401))
        got_rng, want_rng = np.random.default_rng(case), np.random.default_rng(case)
        got = markov_activity(a_j, b_j, t_slots, got_rng)
        want = ref.markov_activity(a_j, b_j, t_slots, want_rng)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (a_j, b_j, t_slots)
        assert got_rng.random() == want_rng.random()
        got_rng, want_rng = np.random.default_rng(case + 1000), np.random.default_rng(case + 1000)
        got = simulate._piecewise_powers(got, got_rng, 100.0, 200.0)
        want = ref._piecewise_powers(want, want_rng, 100.0, 200.0)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (a_j, b_j, t_slots)
        assert got_rng.random() == want_rng.random()


# ----------------------------------------------------------------- generation

def test_static_rank_one_scenario_is_exact():
    truth = generate_scenario(_always_on_cfg())
    assert truth.activity.all()
    power = truth.p_true[0, 0]
    assert (truth.p_true == power).all()
    gamma = truth.gamma_true[:, 0, 0]
    for t in range(truth.s_clean.shape[1]):
        assert np.array_equal(truth.observed.values[:, t], power * gamma)
        assert np.array_equal(truth.s_clean[:, t], power * gamma)


def test_all_inactive_row_contributes_nothing():
    # a = b = 0 freezes the chain; the degenerate start is inactive
    cfg = ScenarioConfig(seed=4, n_pu=1, n_su=4, t_slots=30, noise_var=0.0,
                         p_obs=1.0, a_range=(0.0, 0.0))
    truth = generate_scenario(cfg)
    assert not truth.activity.any()
    assert not truth.p_true.any()
    assert not truth.s_clean.any()


def test_s_clean_matches_brute_force_composition():
    cfg = ScenarioConfig(seed=5, n_pu=2, n_su=4, t_slots=15)
    truth = generate_scenario(cfg)
    for t in range(cfg.t_slots):
        for r in range(cfg.n_su):
            expected = sum(
                truth.p_true[j, t] * truth.gamma_true[r, j, t]
                for j in range(cfg.n_pu)
            )
            assert truth.s_clean[r, t] == pytest.approx(expected, rel=1e-12)


def test_generated_quantities_are_nonnegative():
    truth = generate_scenario(ScenarioConfig(seed=6, t_slots=80))
    assert (truth.gamma_true >= 0).all()
    assert (truth.p_true >= 0).all()
    assert (truth.s_clean >= 0).all()
    assert (truth.observed.values >= 0).all()


def test_power_rows_piecewise_constant_on_runs():
    truth = generate_scenario(ScenarioConfig(seed=7, t_slots=400))
    act, p = truth.activity, truth.p_true
    lo, hi = 100.0, 200.0
    assert (p[act == 0] == 0).all()
    assert ((p[act == 1] >= lo) & (p[act == 1] <= hi)).all()
    inside_run = (act[:, 1:] == 1) & (act[:, :-1] == 1)
    assert (p[:, 1:][inside_run] == p[:, :-1][inside_run]).all()


def test_mask_miss_rate_within_binomial_band():
    cfg = ScenarioConfig(seed=77)
    truth = generate_scenario(cfg)
    miss = 1.0 - truth.observed.mask.mean()
    sigma = np.sqrt(0.3 * 0.7 / truth.observed.mask.size)
    assert abs(miss - 0.3) <= 3 * sigma


def test_noise_moments_match_configuration():
    # small area keeps the signal far above the noise so the nonnegativity
    # clamp never fires and the additive noise is observed directly
    cfg = _always_on_cfg(seed=8, n_su=20, t_slots=5000, area_side=1.0,
                         noise_var=1e-18, p_obs=0.7)
    truth = generate_scenario(cfg)
    sigma = np.sqrt(cfg.noise_var)
    assert truth.s_clean.min() > 100 * sigma
    diff = (truth.observed.values - truth.s_clean)[truth.observed.mask == 1]
    assert diff.size > 60_000
    assert abs(diff.mean()) < 5 * sigma / np.sqrt(diff.size)
    assert abs(diff.var() / cfg.noise_var - 1.0) < 0.05


def test_generation_is_deterministic():
    cfg = ScenarioConfig(seed=123, t_slots=60)
    a = generate_scenario(cfg)
    b = generate_scenario(cfg)
    assert np.array_equal(a.pu_positions, b.pu_positions)
    assert np.array_equal(a.gamma_true, b.gamma_true)
    assert np.array_equal(a.p_true, b.p_true)
    assert np.array_equal(a.s_clean, b.s_clean)
    assert np.array_equal(a.observed.values, b.observed.values)
    assert np.array_equal(a.observed.mask, b.observed.mask)


@pytest.mark.parametrize("field, value, bound", [
    ("duty", 1.0, "in (0, 1)"),
    ("p_obs", 1.5, "in [0, 1]"),
    ("alpha", 0.0, "> 0"),
    ("seed", -1, ">= 0"),
    ("n_pu", 0, ">= 1"),
    ("n_su", 0, ">= 1"),
    ("t_slots", 0, ">= 1"),
    ("eta", 1.5, "in [0, 1]"),
    ("d0", 0.0, "> 0"),
    ("area_side", -1.0, ">= 0"),
    ("noise_var", -1e-9, ">= 0"),
], ids=["duty", "p_obs", "alpha", "seed", "n_pu", "n_su", "t_slots", "eta", "d0", "area_side",
        "noise_var"])
def test_config_validation(field, value, bound):
    named = f"ScenarioConfig field {field!r} must be {bound}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        ScenarioConfig(**{field: value})


@pytest.mark.parametrize("power_range", [(-5.0, -1.0), (-1e-9, 100.0)])
def test_config_refuses_negative_power(power_range):
    named = f"ScenarioConfig field 'power_range' must be >= 0, got {power_range!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        ScenarioConfig(power_range=power_range)
    named = f"ScenarioConfig field 'power_range' must be >= 0, got {list(power_range)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        ScenarioConfig.from_dict({"power_range": list(power_range)})
    assert ScenarioConfig(power_range=(0.0, 0.0)).power_range == (0.0, 0.0)


def test_config_dict_round_trip():
    cfg = ScenarioConfig(seed=9, noise_var=2e-4, a_range=(0.01, 0.02))
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg


def test_config_json_round_trip():
    # to_dict holds the pairs as tuples: json writes them as arrays and reads lists back.
    cfg = ScenarioConfig(seed=9, a_range=(0, 0.1), power_range=[100, 200])
    assert ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
    assert cfg.to_dict() == ExperimentConfig(scenario=cfg).to_dict()["scenario"]
    assert ScenarioConfig().to_dict() == ExperimentConfig().to_dict()["scenario"]


@pytest.mark.parametrize("pair", [(0.05,), (0.15, 0.05), 0.05, ("0.05", 0.15),
                                  (True, 0.15), (0.05, 0.15, 0.2), {0.1: 0, 0.2: 1}])
def test_config_ranges_are_two_ordered_numbers(pair):
    for name in ("a_range", "power_range"):
        named = (f"ScenarioConfig field {name!r} must be two finite numbers [low, high] "
                 f"with low <= high, got {pair!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            ScenarioConfig(**{name: pair})
    assert ScenarioConfig(a_range=[0.1, 0.1]).a_range == (0.1, 0.1)


@pytest.mark.parametrize("overrides, named", [
    ({"a_range": (-0.1, 0.1)}, "ScenarioConfig field 'a_range' must be in [0, 1], got (-0.1, 0.1)"),
    ({"a_range": (0.5, 1.5)}, "ScenarioConfig field 'a_range' must be in [0, 1], got (0.5, 1.5)"),
    ({"duty": 0.9}, "duty 0.9 and a_range [0.05, 0.15] give an activation probability"),
    ({"duty": 0.6, "a_range": (0.0, 0.7)}, "duty 0.6 and a_range [0.0, 0.7]"),
])
def test_config_refuses_a_range_the_generator_cannot_run(overrides, named):
    # markov_activity refuses the transition probabilities these give, on
    # some seeds only, so the constructor must refuse the configuration.
    with pytest.raises(ValueError, match=re.escape(named)):
        ScenarioConfig(**overrides)


def test_config_accepts_activation_probability_of_one():
    cfg = ScenarioConfig(duty=0.5, a_range=(1.0, 1.0), n_su=2, t_slots=20)
    activity = generate_scenario(cfg).activity
    assert (np.abs(np.diff(activity, axis=1)) == 1).all()


_ORACLE_CONFIGS = [
    *[ScenarioConfig(seed=seed) for seed in range(20)],
    ScenarioConfig(n_su=100, t_slots=3000, seed=1),
    ScenarioConfig(t_slots=1, seed=2),
    ScenarioConfig(t_slots=2, seed=3),
    ScenarioConfig(eta=0.0, t_slots=50, seed=4),
    ScenarioConfig(eta=1.0, t_slots=50, seed=5),
    ScenarioConfig(n_pu=9, t_slots=200, seed=6),
    ScenarioConfig(n_pu=1, n_su=1, t_slots=7, area_side=0.0, noise_var=0.0, seed=7),
    ScenarioConfig(a_range=(0.0, 0.0), t_slots=100, seed=8),
    ScenarioConfig(duty=0.5, a_range=(1.0, 1.0), t_slots=100, seed=9),
]


@pytest.mark.parametrize("overrides, quantity", [
    (dict(area_side=1e200, seed=7), "distance"),
    (dict(d0=1e3, alpha=400.0, seed=7), "path gain"),
    (dict(n_pu=1, n_su=1, eta=0.0, area_side=1.0, d0=10.0, alpha=259.0, seed=0),
     "channel gain"),
    (dict(power_range=(1e308, 1e308), d0=10.0, seed=7), "clean received power"),
], ids=["distance", "path-gain", "channel-gain", "received-power"])
def test_generation_overflow_is_one_error_naming_seed_and_quantity(overrides, quantity):
    cfg = ScenarioConfig(t_slots=20, **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=rf"^scenario seed {cfg.seed}: {quantity} overflows float64$"):
            generate_scenario(cfg)


def test_generation_with_d_over_d0_past_float64_underflows_the_gains_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        truth = generate_scenario(ScenarioConfig(t_slots=20, d0=1e-310))
    assert not truth.gamma_true.any() and not truth.s_clean.any()


@pytest.mark.parametrize("cfg", _ORACLE_CONFIGS)
def test_generator_matches_reference_bit_for_bit(cfg):
    got, want = generate_scenario(cfg), ref.generate_scenario(cfg)
    for name in ("pu_positions", "su_positions", "gamma_true", "p_true", "activity",
                 "s_clean"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    for name in ("values", "mask"):
        a, b = getattr(got.observed, name), getattr(want.observed, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_generator_transient_stays_within_four_gamma_arrays():
    # The fading array h is the one large transient: 2x gamma_true, freed
    # before the noise and the mask. A copy of it, or a view that keeps it
    # alive past that point, breaks the bound.
    cfg = ScenarioConfig(n_su=100, t_slots=3000, seed=1)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        truth = generate_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 4 * truth.gamma_true.nbytes, peak


# --------------------------------------------------------------------- export

_FILES = ("observed.csv", "truth_s.csv", "truth_p.csv", "activity.csv", "config.json")
_HAS_FORK = hasattr(os, "fork")


def _write_one_by_one(truth, cfg, out):
    """The scenario directory written by direct calls, one file after another."""
    out.mkdir(parents=True, exist_ok=True)
    save_masked_csv(truth.observed, out / "observed.csv")
    save_dense_csv(truth.s_clean, out / "truth_s.csv")
    save_dense_csv(truth.p_true, out / "truth_p.csv")
    save_dense_csv(truth.activity.astype(float), out / "activity.csv")
    write_json(out / "config.json", cfg.to_dict())


def _assert_same_bytes(got, want, names):
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


def _raised(fn, *args) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.fixture(scope="module")
def large():
    cfg = ScenarioConfig(n_su=100, t_slots=3000, seed=1)
    return generate_scenario(cfg), cfg


def _assert_no_child_left():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["fork", "caller"])
def forks(request, monkeypatch):
    """Which way save_scenario writes: "fork" runs the truth files in a forked
    child, "caller" hides os.fork as on a platform without it. Yields that name
    and checks the number of os.fork calls and that no child is left."""
    if request.param == "fork" and not _HAS_FORK:
        pytest.skip("os.fork unavailable")
    calls = []
    if request.param == "caller":
        monkeypatch.delattr(os, "fork", raising=False)
    else:
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    yield request.param
    assert len(calls) == (request.param == "fork")
    _assert_no_child_left()


@pytest.mark.parametrize("shape", ["t_slots=1", "n_pu=9", "100x3000"])
def test_save_scenario_writes_the_bytes_of_direct_writes(tmp_path, forks, large, shape):
    if shape == "100x3000":
        truth, cfg = large
    else:
        key, value = shape.split("=")
        cfg = ScenarioConfig(**{key: int(value)}, seed=5)
        truth = generate_scenario(cfg)
    save_scenario(truth, cfg, tmp_path / "got")
    _write_one_by_one(truth, cfg, tmp_path / "want")
    assert sorted(p.name for p in (tmp_path / "got").iterdir()) == sorted(_FILES)
    _assert_same_bytes(tmp_path / "got", tmp_path / "want", _FILES)


def test_save_scenario_truth_file_error_is_the_serial_one(tmp_path, forks):
    cfg = ScenarioConfig(t_slots=20, seed=2)
    truth = generate_scenario(cfg)
    (tmp_path / "truth_s.csv").mkdir()
    want = _raised(save_dense_csv, truth.s_clean, tmp_path / "truth_s.csv")
    assert _raised(save_scenario, truth, cfg, tmp_path) == want
    assert want[0] is IsADirectoryError and "truth_s.csv" in want[1]
    assert not (tmp_path / "config.json").exists()


@pytest.mark.parametrize("truth_fails", [False, True])
def test_save_scenario_observed_error_wins_after_the_child_is_joined(tmp_path, forks, large,
                                                                    truth_fails):
    # The child writes 100x3000 truth files while observed.csv fails at once,
    # so the files are complete on return only if the child was joined.
    truth, cfg = large
    (tmp_path / "observed.csv").mkdir()
    if truth_fails:
        (tmp_path / "activity.csv").mkdir()
    want = _raised(save_masked_csv, truth.observed, tmp_path / "observed.csv")
    assert _raised(save_scenario, truth, cfg, tmp_path) == want
    if not truth_fails and forks == "fork":  # the child wrote the truth files
        _write_one_by_one(truth, cfg, tmp_path / "want")
        _assert_same_bytes(tmp_path, tmp_path / "want", _FILES[1:4])
    assert not (tmp_path / "config.json").exists()


@pytest.mark.skipif(not _HAS_FORK, reason="os.fork unavailable")
@pytest.mark.parametrize("death", ["exit-3", "SIGKILL"])
def test_save_scenario_rewrites_the_truth_files_of_a_child_that_dies(tmp_path, monkeypatch,
                                                                     death):
    caller, save_truth = os.getpid(), simulate._save_truth

    def die_halfway_in_the_child(truth, out):
        if os.getpid() == caller:
            return save_truth(truth, out)
        (out / "truth_s.csv").write_text("r,t,val")
        if death == "SIGKILL":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(3)

    codes = []
    to_code = os.waitstatus_to_exitcode
    monkeypatch.setattr(simulate, "_save_truth", die_halfway_in_the_child)
    monkeypatch.setattr(os, "waitstatus_to_exitcode",
                        lambda status: codes.append(to_code(status)) or codes[-1])
    cfg = ScenarioConfig(t_slots=20, seed=2)
    truth = generate_scenario(cfg)
    save_scenario(truth, cfg, tmp_path / "got")
    assert codes == [-signal.SIGKILL if death == "SIGKILL" else 3]
    _assert_no_child_left()
    _write_one_by_one(truth, cfg, tmp_path / "want")
    assert sorted(p.name for p in (tmp_path / "got").iterdir()) == sorted(_FILES)
    _assert_same_bytes(tmp_path / "got", tmp_path / "want", _FILES)


def test_save_scenario_of_numpy_scalar_settings_writes_the_bytes_of_python_numbers(tmp_path,
                                                                                  forks):
    # A seed drawn with rng.integers is an np.int64; config.json echoes it as an int.
    settings = {"seed": 3, "n_su": 4, "t_slots": 20, "area_side": 50.0, "noise_var": 1e-6}
    numpy_cfg = ScenarioConfig(**{k: np.asarray(v)[()] for k, v in settings.items()})
    cfg = ScenarioConfig(**settings)
    save_scenario(generate_scenario(numpy_cfg), numpy_cfg, tmp_path / "got")
    _write_one_by_one(generate_scenario(cfg), cfg, tmp_path / "want")
    assert sorted(p.name for p in (tmp_path / "got").iterdir()) == sorted(_FILES)
    _assert_same_bytes(tmp_path / "got", tmp_path / "want", _FILES)


@pytest.mark.skipif(not _HAS_FORK, reason="os.fork unavailable")
def test_save_scenario_writes_in_the_caller_beside_other_threads(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside another thread"))
    cfg = ScenarioConfig(t_slots=20, seed=2)
    truth = generate_scenario(cfg)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        save_scenario(truth, cfg, tmp_path / "got")
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    _write_one_by_one(truth, cfg, tmp_path / "want")
    _assert_same_bytes(tmp_path / "got", tmp_path / "want", _FILES)


def _fork_calls_of_save_scenario(truth, cfg, outdir) -> int:
    """save_scenario(truth, cfg, outdir) in this process; the os.fork calls it made."""
    calls, fork = [], os.fork
    os.fork = lambda: calls.append(1) or fork()
    try:
        save_scenario(truth, cfg, outdir)
    finally:
        os.fork = fork
    return len(calls)


@pytest.mark.skipif(not _HAS_FORK, reason="os.fork unavailable")
def test_save_scenario_runs_in_a_daemonic_pool_worker(tmp_path):
    # A pool worker runs one thread, so it forks the truth writer as any such
    # process does, daemonic or not.
    cfg = ScenarioConfig(t_slots=20, seed=2)
    truth = generate_scenario(cfg)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        forked = pool.apply(_fork_calls_of_save_scenario, (truth, cfg, tmp_path / "got"))
    assert forked == 1
    _write_one_by_one(truth, cfg, tmp_path / "want")
    _assert_same_bytes(tmp_path / "got", tmp_path / "want", _FILES)
