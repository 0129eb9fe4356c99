"""Scenario-generator tests: geometry, fading, activity, composition, statistics."""

import numpy as np
import pytest

from pcnmf import (
    ScenarioConfig,
    activation_rate_for_duty,
    fading_step,
    generate_scenario,
    markov_activity,
    path_gain,
    place_network,
)


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

def test_markov_absorbing_all_active():
    seq = markov_activity(0.0, 0.0, 20, np.random.default_rng(0), initial=1)
    assert np.array_equal(seq, np.ones(20, dtype=np.int64))


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


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(duty=1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(p_obs=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(alpha=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(seed=-1)


def test_config_dict_round_trip():
    cfg = ScenarioConfig(seed=9, noise_var=2e-4, a_range=(0.01, 0.02))
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("pair", [(0.05,), (0.15, 0.05), 0.05, ("0.05", 0.15),
                                  (True, 0.15), (0.05, 0.15, 0.2)])
def test_config_ranges_are_two_ordered_numbers(pair):
    with pytest.raises(ValueError, match="a_range must be two numbers"):
        ScenarioConfig(a_range=pair)
    with pytest.raises(ValueError, match="power_range must be two numbers"):
        ScenarioConfig(power_range=pair)
    assert ScenarioConfig(a_range=[0.1, 0.1]).a_range == (0.1, 0.1)
