"""Synthetic cognitive-radio scenario generator.

Builds the measurement matrix a fusion center would collect: primary
transmitters and sensors dropped uniformly in a square, power-law path
gains, slowly varying Rayleigh fading through a first-order autoregressive
recursion, two-state Markov on/off activity with a fresh uniform transmit
power per activation run, additive Gaussian sensor noise, and Bernoulli
observation masking. `fading_step` runs the generator's one AR(1) step.
Every `ScenarioConfig` that constructs generates on every seed, unless a
distance, a gain or the clean received power overflows float64 on it: that
raises one ValueError naming the seed and the quantity, with no warning.

Every random quantity is drawn from a named substream keyed on the scenario
seed, so scenarios are reproducible regardless of generation order and
independent scenarios can be produced in parallel.

`generate_scenario` holds about 3x `gamma_true` at its peak: the complex
fading array h (2x) and `gamma_true`, which is written through its
transposed view and squared and scaled in place. h is freed before the
noise and the mask are drawn.

`save_scenario` exports a scenario directory on two CPUs where the platform
can fork: a bare os.fork child writes the three truth files from the arrays
it inherits, nothing pickled, and reports only its exit status, while the
caller writes observed.csv. The caller rewrites the truth files of a child
that did not exit 0, so every file and every error is the same as from the
writes made one after another; a failure can leave a partial directory.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from ._config import check, check_dict, check_field, check_fields, ranged
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

    area_side: float = ranged(100.0, 0)              # side of the square deployment area
    n_pu: int = ranged(3, 1)                         # primary transmitters
    n_su: int = ranged(20, 1)                        # sensors
    t_slots: int = ranged(600, 1)                    # time slots
    d0: float = ranged(0.01, 0, strict=True)         # path-loss reference distance
    alpha: float = ranged(2.5, 0, strict=True)       # path-loss exponent
    eta: float = ranged(0.9995, 0, 1)                # fading memory
    duty: float = ranged(0.3, 0, 1, strict=True)     # long-run fraction of active slots
    a_range: tuple[float, float] = ranged((0.05, 0.15), 0, 1)     # deactivation prob. support
    power_range: tuple[float, float] = ranged((100.0, 200.0), 0)  # transmit power support
    p_obs: float = ranged(0.7, 0, 1)                 # probability a cell is observed
    noise_var: float = ranged(1e-5, 0)               # sensor noise variance
    seed: int = ranged(0, 0)

    def __post_init__(self):
        check_fields(self)
        # a_j <= a_range[1] on every seed, so this bounds every activation probability.
        if activation_rate_for_duty(self.duty, self.a_range[1]) > 1:
            raise ValueError(f"duty {self.duty!r} and a_range {list(self.a_range)} give an "
                             f"activation probability duty*a_range[1]/(1-duty) above 1")

    def to_dict(self) -> dict:
        return asdict(self)

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
    """Power attenuation (d / d0)^(-alpha); a zero distance is treated as d0.

    A gain past float64's range is inf, without a warning. Raises ValueError
    unless every distance is finite and >= 0.
    """
    dist = np.asarray(d, dtype=np.float64)
    if not (np.isfinite(dist).all() and (dist >= 0).all()):
        raise ValueError("distances must be finite and >= 0")
    dist = np.where(dist == 0.0, cfg.d0, dist)
    with np.errstate(over="ignore"):
        ratio = dist / cfg.d0
        gain = ratio ** (-cfg.alpha)
        if np.isinf(ratio).any():  # d / d0 past float64's range: the power through logs
            far = np.exp(cfg.alpha * (np.log(cfg.d0) - np.log(dist)))
            gain = np.where(np.isinf(ratio), far, gain)
    return gain


def _cn01(rng: np.random.Generator, size=None):
    """CN(0, 1) draws; size=None gives a Python scalar, not a 0-d array that rounds apart."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def _ar1(h_prev, eta: float, nu, out=None):
    """The fading recursion eta*h + sqrt(1-eta^2)*nu, written into out if given (out may be nu)."""
    out = np.multiply(nu, np.sqrt(1.0 - eta * eta), out=out)
    out += eta * h_prev
    return out


def fading_step(h_prev, eta: float, rng: np.random.Generator):
    """One autoregressive fading step: eta*h + sqrt(1-eta^2)*nu, nu ~ CN(0,1).

    Preserves a unit stationary second moment: if E|h_prev|^2 = 1 then the
    output has E|h|^2 = 1 for any eta in [0, 1].
    """
    eta = check_field(ScenarioConfig, "eta", eta)
    return _ar1(h_prev, eta, _cn01(rng, np.shape(h_prev)))


def markov_activity(a_j: float, b_j: float, t_slots: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Two-state on/off chain: a_j = P(1 -> 0), b_j = P(0 -> 1).

    The first slot is drawn from the stationary law b/(a+b). a_j = b_j = 0
    has no stationary law; the chain then starts inactive and stays so.
    """
    a_j, b_j = check("a_j", a_j, "float", 0, 1), check("b_j", b_j, "float", 0, 1)
    t_slots = check_field(ScenarioConfig, "t_slots", t_slots)
    lam = b_j / (a_j + b_j) if a_j + b_j > 0 else 0.0
    state = int(rng.random() < lam)
    seq = np.zeros(t_slots, dtype=np.int64)
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
    duty = check_field(ScenarioConfig, "duty", duty)
    a_j = check("a_j", a_j, "float", 0, 1)
    return duty * a_j / (1.0 - duty)


def _piecewise_powers(activity: np.ndarray, rng: np.random.Generator,
                      lo: float, hi: float) -> np.ndarray:
    """Constant power per active run, redrawn at each 0 -> 1 transition."""
    on = np.asarray(activity) != 0
    starts = on.copy()
    starts[1:] &= ~on[:-1]
    # One vector draw gives the levels the per-run scalar draws would, in order.
    levels = rng.uniform(lo, hi, size=np.count_nonzero(starts))
    powers = np.zeros(on.shape[0])
    powers[on] = levels[np.cumsum(starts)[on] - 1]
    return powers


def _in_range(values: np.ndarray, quantity: str, seed: int) -> np.ndarray:
    """values, or a ValueError naming quantity and seed if one overflowed float64."""
    if not np.isfinite(values).all():
        raise ValueError(f"scenario seed {seed}: {quantity} overflows float64")
    return values


def generate_scenario(cfg: ScenarioConfig) -> ScenarioTruth:
    """Generate one scenario; fully deterministic given cfg (seed included).

    Raises ValueError naming the seed and the quantity when a distance, a gain
    or the clean received power overflows float64.
    """
    pu_pos, su_pos = place_network(cfg, _substream(cfg.seed, _GEOMETRY))

    diff = su_pos[:, None, :] - pu_pos[None, :, :]
    with np.errstate(over="ignore"):
        dist = _in_range(np.sqrt(np.sum(diff * diff, axis=2)), "distance", cfg.seed)
    static_gain = _in_range(path_gain(dist, cfg), "path gain", cfg.seed)

    # Per-pair fading trajectories from keyed substreams, stationary start;
    # h[1:] holds each pair's innovations until the recursion overwrites them.
    n_pairs = cfg.n_su * cfg.n_pu
    h = np.empty((cfg.t_slots, n_pairs), dtype=np.complex128)
    for idx in range(n_pairs):
        r, j = divmod(idx, cfg.n_pu)
        rng_pair = _substream(cfg.seed, _FADING, r, j)
        h[0, idx] = _cn01(rng_pair)
        h[1:, idx] = _cn01(rng_pair, cfg.t_slots - 1)
    for t in range(1, cfg.t_slots):
        _ar1(h[t - 1], cfg.eta, h[t], out=h[t])

    # gamma_true[r, j, t] = static_gain[r, j] * |h[t, r*n_pu + j]|^2, built in
    # place through its (t, pair) view; h is freed before the noise and mask.
    gamma_true = np.empty((cfg.n_su, cfg.n_pu, cfg.t_slots))
    np.abs(h, out=gamma_true.reshape(n_pairs, cfg.t_slots).T)
    del h
    np.square(gamma_true, out=gamma_true)
    with np.errstate(over="ignore"):
        gamma_true *= static_gain[:, :, None]
    _in_range(gamma_true, "channel gain", cfg.seed)

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

    with np.errstate(over="ignore"):
        s_clean = np.einsum("rjt,jt->rt", gamma_true, p_true)
    _in_range(s_clean, "clean received power", cfg.seed)

    values = _substream(cfg.seed, _NOISE).normal(
        0.0, np.sqrt(cfg.noise_var), size=s_clean.shape
    )
    # Noise can push tiny powers slightly negative; observations are powers,
    # so clamp at zero.
    values += s_clean
    np.maximum(values, 0.0, out=values)
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


def _save_truth(truth: ScenarioTruth, out) -> None:
    save_dense_csv(truth.s_clean, out / "truth_s.csv")
    save_dense_csv(truth.p_true, out / "truth_p.csv")
    save_dense_csv(truth.activity.astype(float), out / "activity.csv")


def _can_fork() -> bool:
    # In a process running other threads a forked child could wait forever
    # on a lock one held.
    import threading

    return hasattr(os, "fork") and threading.active_count() == 1


def save_scenario(truth: ScenarioTruth, cfg: ScenarioConfig, outdir) -> None:
    """Export a scenario directory: observed/truth CSVs plus config echo.

    Where the process can fork, a bare os.fork child writes truth_s.csv,
    truth_p.csv and activity.csv, inheriting the arrays, while this process
    writes observed.csv; elsewhere this process writes all of them. The
    child reports only its exit status, 0 or 1, and never prints. It is
    reaped once observed.csv is written or has failed. If it did not exit
    0, this process writes the truth files again itself, so a child that
    dies is recovered and every file and every error is that of the writes
    made one after another: observed.csv's, else the truth files'.
    config.json comes last. A failure can leave a partial directory.
    """
    from pathlib import Path

    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    child = os.fork() if _can_fork() else None
    if child == 0:
        code = 1
        try:
            _save_truth(truth, out)
            code = 0
        finally:
            os._exit(code)
    try:
        save_masked_csv(truth.observed, out / "observed.csv")
    finally:
        code = None if child is None else os.waitstatus_to_exitcode(os.waitpid(child, 0)[1])
    if code != 0:
        _save_truth(truth, out)
    write_json(out / "config.json", cfg.to_dict())
