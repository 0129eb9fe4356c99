"""Reference copy of the scenario generator, kept as a bit-identity oracle.

This is `generate_scenario` as it was written before the fading model was
shared with `fading_step`, with the functions it called, copied without
change. Every array of a generated scenario must equal what this copy
produces, bit for bit. Do not edit this file to follow the simulator: a
difference is a simulator bug.
"""

from __future__ import annotations

import numpy as np

from pcnmf.matrices import MaskedMatrix
from pcnmf.simulate import ScenarioConfig, ScenarioTruth

# substream tags
_GEOMETRY = 0
_ACTIVITY = 1
_POWER = 2
_FADING = 3
_NOISE = 4
_MASK = 5


def _substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, *key)))


def place_network(cfg: ScenarioConfig,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform i.i.d. positions in the square; transmitters first, then sensors."""
    pts = rng.uniform(0.0, cfg.area_side, size=(cfg.n_pu + cfg.n_su, 2))
    return pts[: cfg.n_pu], pts[cfg.n_pu :]


def path_gain(d, cfg: ScenarioConfig):
    """Power attenuation (d / d0)^(-alpha); a zero distance is treated as d0."""
    dist = np.where(np.asarray(d, dtype=np.float64) == 0.0, cfg.d0, d)
    return (dist / cfg.d0) ** (-cfg.alpha)


def markov_activity(a_j: float, b_j: float, t_slots: int,
                    rng: np.random.Generator, initial: int | None = None) -> np.ndarray:
    """Two-state on/off chain: a_j = P(1 -> 0), b_j = P(0 -> 1).

    The first slot is drawn from the stationary law b/(a+b) unless an
    initial state is given. a_j = b_j = 0 freezes the chain in its initial
    state (we default that degenerate start to inactive).
    """
    if not 0 <= a_j <= 1 or not 0 <= b_j <= 1:
        raise ValueError("transition probabilities must be in [0, 1]")
    if t_slots < 1:
        raise ValueError("t_slots must be >= 1")
    seq = np.zeros(t_slots, dtype=np.int64)
    if initial is None:
        lam = b_j / (a_j + b_j) if a_j + b_j > 0 else 0.0
        state = int(rng.random() < lam)
    else:
        state = 1 if initial else 0
    seq[0] = state
    u = rng.random(t_slots - 1)
    for t in range(1, t_slots):
        if state == 1:
            state = 0 if u[t - 1] < a_j else 1
        else:
            state = 1 if u[t - 1] < b_j else 0
        seq[t] = state
    return seq


def activation_rate_for_duty(duty: float, a_j: float) -> float:
    """Activation probability giving the requested duty cycle b/(a+b) = duty."""
    if not 0 < duty < 1:
        raise ValueError("duty must be in (0, 1)")
    return duty * a_j / (1.0 - duty)


def _piecewise_powers(activity: np.ndarray, rng: np.random.Generator,
                      lo: float, hi: float) -> np.ndarray:
    """Constant power per active run, redrawn at each 0 -> 1 transition."""
    powers = np.zeros(activity.shape[0])
    level = 0.0
    prev = 0
    for t, on in enumerate(activity):
        if on and not prev:
            level = rng.uniform(lo, hi)
        powers[t] = level if on else 0.0
        prev = on
    return powers


def generate_scenario(cfg: ScenarioConfig) -> ScenarioTruth:
    """Generate one scenario; fully deterministic given cfg (seed included)."""
    pu_pos, su_pos = place_network(cfg, _substream(cfg.seed, _GEOMETRY))

    diff = su_pos[:, None, :] - pu_pos[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    static_gain = path_gain(dist, cfg)

    # Per-pair fading trajectories from keyed substreams, stationary start.
    n_pairs = cfg.n_su * cfg.n_pu
    h0 = np.empty(n_pairs, dtype=np.complex128)
    nu = np.empty((cfg.t_slots - 1, n_pairs), dtype=np.complex128) if cfg.t_slots > 1 else None
    for idx in range(n_pairs):
        r, j = divmod(idx, cfg.n_pu)
        rng_pair = _substream(cfg.seed, _FADING, r, j)
        h0[idx] = (rng_pair.standard_normal() + 1j * rng_pair.standard_normal()) / np.sqrt(2.0)
        if cfg.t_slots > 1:
            nu[:, idx] = (
                rng_pair.standard_normal(cfg.t_slots - 1)
                + 1j * rng_pair.standard_normal(cfg.t_slots - 1)
            ) / np.sqrt(2.0)
    h = np.empty((cfg.t_slots, n_pairs), dtype=np.complex128)
    h[0] = h0
    drive = np.sqrt(1.0 - cfg.eta * cfg.eta)
    for t in range(1, cfg.t_slots):
        h[t] = cfg.eta * h[t - 1] + drive * nu[t - 1]
    fading_power = np.abs(h.reshape(cfg.t_slots, cfg.n_su, cfg.n_pu)) ** 2
    gamma_true = static_gain[None, :, :] * fading_power
    gamma_true = np.ascontiguousarray(np.moveaxis(gamma_true, 0, 2))

    activity = np.zeros((cfg.n_pu, cfg.t_slots), dtype=np.int64)
    p_true = np.zeros((cfg.n_pu, cfg.t_slots))
    for j in range(cfg.n_pu):
        rng_act = _substream(cfg.seed, _ACTIVITY, j)
        a_j = rng_act.uniform(*cfg.a_range)
        b_j = activation_rate_for_duty(cfg.duty, a_j)
        activity[j] = markov_activity(a_j, b_j, cfg.t_slots, rng_act)
        p_true[j] = _piecewise_powers(
            activity[j], _substream(cfg.seed, _POWER, j), *cfg.power_range
        )

    s_clean = np.einsum("rjt,jt->rt", gamma_true, p_true)

    noise = _substream(cfg.seed, _NOISE).normal(
        0.0, np.sqrt(cfg.noise_var), size=s_clean.shape
    )
    # Noise can push tiny powers slightly negative; observations are powers,
    # so clamp at zero.
    values = np.maximum(s_clean + noise, 0.0)
    mask = (_substream(cfg.seed, _MASK).random(s_clean.shape) < cfg.p_obs).astype(float)

    return ScenarioTruth(
        pu_positions=pu_pos,
        su_positions=su_pos,
        gamma_true=gamma_true,
        p_true=p_true,
        activity=activity,
        s_clean=s_clean,
        observed=MaskedMatrix(values, mask),
    )
