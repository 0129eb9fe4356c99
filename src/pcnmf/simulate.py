"""Synthetic cognitive-radio scenario generator.

Builds the measurement matrix a fusion center would collect: primary
transmitters and sensors dropped uniformly in a square, power-law path
gains, slowly varying Rayleigh fading through a first-order autoregressive
recursion, two-state Markov on/off activity with a fresh uniform transmit
power per activation run, additive Gaussian sensor noise, and Bernoulli
observation masking.

Every random quantity is drawn from a named substream keyed on the scenario
seed, so scenarios are reproducible regardless of generation order and
independent scenarios can be produced in parallel.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ._config import check_dict, check_fields, number_pair
from .matrices import MaskedMatrix, save_dense_csv, save_masked_csv, write_json

# substream tags
_GEOMETRY = 0
_ACTIVITY = 1
_POWER = 2
_FADING = 3
_NOISE = 4
_MASK = 5


def _substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, *key)))


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical and sampling parameters of a synthetic scenario."""

    area_side: float = 100.0     # side of the square deployment area
    n_pu: int = 3                # primary transmitters
    n_su: int = 20               # sensors
    t_slots: int = 600           # time slots
    d0: float = 0.01             # path-loss reference distance
    alpha: float = 2.5           # path-loss exponent
    eta: float = 0.9995          # fading memory
    duty: float = 0.3            # long-run fraction of active slots
    a_range: tuple[float, float] = (0.05, 0.15)      # deactivation prob. support
    power_range: tuple[float, float] = (100.0, 200.0)  # transmit power support
    p_obs: float = 0.7           # probability a cell is observed
    noise_var: float = 1e-5      # sensor noise variance
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.n_pu < 1 or self.n_su < 1 or self.t_slots < 1:
            raise ValueError("counts must be >= 1")
        if not 0 < self.duty < 1:
            raise ValueError("duty must be in (0, 1)")
        if not 0 <= self.p_obs <= 1:
            raise ValueError("p_obs must be in [0, 1]")
        if not 0 <= self.eta <= 1:
            raise ValueError("eta must be in [0, 1]")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.d0 <= 0:
            raise ValueError("d0 must be > 0")
        if self.area_side < 0:
            raise ValueError("area_side must be >= 0")
        if self.noise_var < 0:
            raise ValueError("noise_var must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("a_range", "power_range"):
            object.__setattr__(self, name, number_pair(name, getattr(self, name)))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["a_range"] = list(self.a_range)
        d["power_range"] = list(self.power_range)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        check_dict(cls, d)
        return cls(**d)


@dataclass(frozen=True)
class ScenarioTruth:
    """Ground truth of one generated scenario."""

    pu_positions: np.ndarray     # (n_pu, 2)
    su_positions: np.ndarray     # (n_su, 2)
    gamma_true: np.ndarray       # (n_su, n_pu, t_slots) channel gains
    p_true: np.ndarray           # (n_pu, t_slots) transmit powers
    activity: np.ndarray         # (n_pu, t_slots) 0/1
    s_clean: np.ndarray          # (n_su, t_slots) noiseless received power
    observed: MaskedMatrix       # noisy, masked measurements


def place_network(cfg: ScenarioConfig,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform i.i.d. positions in the square; transmitters first, then sensors."""
    pts = rng.uniform(0.0, cfg.area_side, size=(cfg.n_pu + cfg.n_su, 2))
    return pts[: cfg.n_pu], pts[cfg.n_pu :]


def path_gain(d, cfg: ScenarioConfig):
    """Power attenuation (d / d0)^(-alpha); a zero distance is treated as d0."""
    dist = np.where(np.asarray(d, dtype=np.float64) == 0.0, cfg.d0, d)
    return (dist / cfg.d0) ** (-cfg.alpha)


def fading_step(h_prev, eta: float, rng: np.random.Generator):
    """One autoregressive fading step: eta*h + sqrt(1-eta^2)*nu, nu ~ CN(0,1).

    Preserves a unit stationary second moment: if E|h_prev|^2 = 1 then the
    output has E|h|^2 = 1 for any eta in [0, 1].
    """
    if not 0 <= eta <= 1:
        raise ValueError("eta must be in [0, 1]")
    shape = np.shape(h_prev)
    nu = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return eta * h_prev + np.sqrt(1.0 - eta * eta) * nu


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


def save_scenario(truth: ScenarioTruth, cfg: ScenarioConfig, outdir) -> None:
    """Export a scenario directory: observed/truth CSVs plus config echo."""
    from pathlib import Path

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    save_masked_csv(truth.observed, out / "observed.csv")
    save_dense_csv(truth.s_clean, out / "truth_s.csv")
    save_dense_csv(truth.p_true, out / "truth_p.csv")
    save_dense_csv(truth.activity.astype(float), out / "activity.csv")
    write_json(out / "config.json", cfg.to_dict())
