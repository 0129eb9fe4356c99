"""Masked NMF with a piecewise-constant activation penalty.

Minimizes, over nonnegative gains and activations,

    fit + beta * penalty,   with
    fit     = sum_{r,t} w_rt * 0.5 * (s_rt - sum_j gains_rj * act_jt)^2
    penalty = sum_{j, t>=2} rho(act_jt - act_j(t-1)),  rho(x) = x^2/(x^2+eps^2)

by majorization-minimization: each outer iteration recomputes quadratic
transition weights from the previous activations (iterative reweighting),
takes one closed-form activation sweep, one multiplicative gains update, and
renormalizes the gains columns to unit 2-norm (absorbing scale into the
activations) to stop the penalty from draining the activations to zero.

With beta = 0 and a full mask the updates coincide, in exact arithmetic and
elementwise in floating point, with the classical Euclidean multiplicative
NMF rules; the weighted variant handles missing entries by masking both the
data and the current reconstruction.

One MM kernel. Every formula of the iteration is written once, in the
private helpers below; `solve`, `infer_activations` and the public step
functions (`compute_reweights`, `update_activations`, `update_gains`,
`rescale`, `surrogate_per_slot`) all call them. With G the gains, P the
activations and W the mask, one `solve` iteration computes six products:

    G^T (W ⊙ S), G^T (W ⊙ G P)                expansion around P
    G P_new                                    fit_after_p, gains denominator
    (W ⊙ S) P_new^T, (W ⊙ G P_new) P_new^T     gains update
    G P after the rescale                      the new state

`infer_activations` freezes the gains, so it computes G^T (W ⊙ S) once
before its loop and two products per iteration: G^T (W ⊙ G P) and G P.
The state at the end of an iteration (W ⊙ G P and d^2 = diff(P)^2) is
carried into the next one: W ⊙ G P feeds the next curvature, and d^2 both
the reported penalty and the next reweights. Inside the kernel the
reweights are one K x (T-1) array, one weight per transition, and a slot
reads its neighbors and their weights by slicing; only compute_reweights
pads them into the K x (T+1) ReweightMatrix of the public step functions,
which hand its interior columns back to the kernel. fit_after_p and fit
are derived from these shared products in the same operation order as
the step functions, so the loops and the public functions agree bit for
bit. The loops never evaluate the surrogate: surrogate_per_slot on
solve(..., record_factors=True) iterates checks MM monotonicity after
the fact.

Epsilon enters in two ways. The reweights are 1 / (d^2 + epsilon), with
epsilon added as-is to a squared difference, while the reported penalty is
rho(d) = d^2 / (d^2 + epsilon^2). The reweights are the MM weights of the
log penalty sum log(d^2 + epsilon), not those of rho, so the traced
objective fit + beta * penalty is not guaranteed to decrease.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._config import check_dict, check_finite
from .matrices import (FactorPair, MaskedMatrix, ReweightMatrix, ShapeMismatchError,
                       write_csv)

# Activations are floored here after every update: the diagonal majorizer
# divides by the current activation, so an exact zero would lock the
# multiplicative update at zero and poison the next curvature estimate.
ACTIVATION_FLOOR = 1e-12


class NumericFailureError(RuntimeError):
    """Non-finite value appeared in a solver iterate."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite iterate at iteration {iteration}")
        self.iteration = iteration


class DegenerateFactorError(ValueError):
    """A gains column has zero norm and cannot be rescaled."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters.

    beta     : weight of the piecewise-constant penalty (0 disables it,
               giving plain weighted NMF).
    epsilon  : smoothing constant; added as-is to the squared transition in
               the reweight denominator, squared inside the penalty kernel.
    rank     : number of factors K.
    max_iters, rel_tol : stop after max_iters outer iterations or when the
               relative objective change drops below rel_tol.
    init_seed: seed for the uniform (0.1, 1.1) factor initialization.
    guard    : tiny positive value protecting denominators.
    """

    beta: float = 5e-3
    epsilon: float = 1e-6
    rank: int = 5
    max_iters: int = 1000
    rel_tol: float = 1e-8
    init_seed: int = 0
    guard: float = 1e-12

    def __post_init__(self):
        check_finite(self)
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tol < 0:
            raise ValueError("rel_tol must be >= 0")
        if self.init_seed < 0:
            raise ValueError("init_seed must be >= 0")
        if self.guard <= 0:
            raise ValueError("guard must be > 0")

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        check_dict(cls, d)
        return cls(**d)


@dataclass(frozen=True)
class IterationRecord:
    """One outer iteration of the trace.

    fit_after_p holds the weighted fit right after the activation sweep
    (before the gains update); fit/penalty/objective are evaluated at the
    end of the iteration, after rescaling. objective == fit + beta * penalty
    by construction.
    """

    iteration: int
    fit_after_p: float
    fit: float
    penalty: float
    objective: float
    clamped: int


@dataclass(frozen=True)
class IterateSnapshot:
    """Raw iterates kept when solve(..., record_factors=True).

    activations_updated / gains_updated are the pre-rescale results of the
    two update steps; pair is the rescaled state the next iteration sees.
    """

    activations_updated: np.ndarray
    gains_updated: np.ndarray
    pair: FactorPair


@dataclass
class SolveTrace:
    records: list[IterationRecord] = field(default_factory=list)
    iterates: list[IterateSnapshot] | None = None
    initial: FactorPair | None = None

    @property
    def iterations(self) -> int:
        return len(self.records)

    def to_csv(self, path) -> None:
        """Export as CSV with columns iter,fit,penalty,objective."""
        write_csv(path, ["iter", "fit", "penalty", "objective"],
                  ((rec.iteration, rec.fit, rec.penalty, rec.objective)
                   for rec in self.records))


def _check_compatible(s: MaskedMatrix, gains: np.ndarray, acts: np.ndarray) -> None:
    if s.shape != (gains.shape[0], acts.shape[1]) or gains.shape[1] != acts.shape[0]:
        raise ShapeMismatchError(
            f"measurements {s.shape}, gains {gains.shape}, "
            f"activations {acts.shape} are incompatible"
        )


# ------------------------------------------------------------------ MM kernel

def _masked_fit(values, mask, gains, acts):
    """(W ⊙ G P, squared residual, weighted fit) at one (gains, acts) state."""
    wgp = mask * (gains @ acts)
    # values is already zero where the mask is, so values - W ⊙ GP equals
    # W ⊙ (values - GP) up to the sign of a zero, which squaring removes.
    resid = values - wgp
    sq_resid = resid * resid
    return wgp, sq_resid, 0.5 * float(sq_resid.sum())


def _transitions(acts: np.ndarray) -> np.ndarray:
    """Squared consecutive differences d^2 along time, K x (T-1)."""
    return np.square(np.diff(acts, axis=1))


def _penalty(d2: np.ndarray, epsilon: float) -> float:
    return float((d2 / (d2 + epsilon * epsilon)).sum())


def _reweights(d2: np.ndarray, epsilon: float) -> np.ndarray:
    """K x (T-1) transition weights 1 / (d^2 + epsilon)."""
    return 1.0 / (d2 + epsilon)


def _state(values, mask, gains, acts, epsilon):
    """Everything the next iteration reuses from one (gains, acts) state.

    Returns (W ⊙ G P, fit, d^2, penalty).
    """
    wgp, _, fit = _masked_fit(values, mask, gains, acts)
    d2 = _transitions(acts)
    return wgp, fit, d2, _penalty(d2, epsilon)


def _activation_step(p, data, curv, w, beta: float, guard: float):
    """One reweighted activation sweep; returns (new acts, clamp count).

    Closed-form minimizer of the per-slot quadratic surrogate around p, with
    data = G^T (W ⊙ S), curv = G^T (W ⊙ G p) and the K x (T-1) reweights w,
    written with numerator and denominator both multiplied by the current
    activation so no division by the iterate is needed:

        new = (data + 2*beta*pull) * p / (curv + 2*beta*wsum * p)

    Slot t is pulled toward its neighbors through the transitions on either
    side of it, w[:, t-1] and w[:, t], read from w by slicing:

        pull[:, 1:] = w * p[:, :-1]    then    pull[:, :-1] += w * p[:, 1:]
        wsum[:, 1:] = w                then    wsum[:, :-1] += w

    so the first and last slots see one neighbor each. At beta = 0 this is
    exactly p * data / curv, the multiplicative Euclidean update.
    """
    pull = np.zeros_like(p)
    pull[:, 1:] = w * p[:, :-1]
    pull[:, :-1] += w * p[:, 1:]
    wsum = np.zeros_like(p)
    wsum[:, 1:] = w
    wsum[:, :-1] += w
    two_beta = 2.0 * beta
    num = (data + two_beta * pull) * p
    den = curv + two_beta * wsum * p
    low = den < guard
    clamped = int(np.count_nonzero(low))
    if clamped:
        den = np.maximum(den, guard)
    return np.maximum(num / den, ACTIVATION_FLOOR), clamped


def _gains_step(values, wgp, gains, acts, guard):
    """gains * ((W ⊙ S) P^T) / ((W ⊙ G P) P^T + guard), wgp = W ⊙ G P."""
    num = values @ acts.T
    den = wgp @ acts.T + guard
    return gains * num / den


def _rescale(gains, acts, rng=None):
    """Unit-norm gains columns, with the column scale moved into acts.

    A zero-norm column raises DegenerateFactorError, unless rng is given:
    then the column is redrawn in place from the init distribution first.
    """
    norms = np.linalg.norm(gains, axis=0)
    dead = np.flatnonzero(norms == 0)
    if dead.size:
        if rng is None:
            raise DegenerateFactorError(f"gains columns {dead.tolist()} have zero norm")
        gains[:, dead] = rng.uniform(0.1, 1.1, size=(gains.shape[0], dead.size))
        norms = np.linalg.norm(gains, axis=0)
    return gains / norms, acts * norms[:, None]


# ------------------------------------------------------- public step functions

def _check_epsilon(epsilon) -> None:
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be a finite number > 0, got {epsilon!r}")


def weighted_fit(s: MaskedMatrix, pair: FactorPair) -> float:
    """Half the mask-weighted squared reconstruction error."""
    _check_compatible(s, pair.gains, pair.activations)
    return _masked_fit(s.values, s.mask, pair.gains, pair.activations)[2]


def penalty_smoothed(activations: np.ndarray, epsilon: float) -> float:
    """Smoothed transition count of the activation rows.

    Each consecutive difference d contributes d^2 / (d^2 + epsilon^2),
    which is 0 for a flat pair and approaches 1 for any clear transition.
    """
    _check_epsilon(epsilon)
    return _penalty(_transitions(np.asarray(activations, dtype=np.float64)), epsilon)


def objective(s: MaskedMatrix, pair: FactorPair, cfg: SolverConfig) -> float:
    """weighted_fit + beta * penalty_smoothed."""
    return weighted_fit(s, pair) + cfg.beta * penalty_smoothed(
        pair.activations, cfg.epsilon
    )


def _expand_at(s: MaskedMatrix, gains: np.ndarray, p: np.ndarray):
    """(G^T (W ⊙ S), G^T (W ⊙ G p), squared residual) at activations p."""
    wgp, sq_resid, _ = _masked_fit(s.values, s.mask, gains, p)
    return gains.T @ s.values, gains.T @ wgp, sq_resid


def fit_gradient(s: MaskedMatrix, gains: np.ndarray, acts: np.ndarray) -> np.ndarray:
    """Gradient of the weighted fit w.r.t. the activations, K x T.

    Per slot: -gains^T (w ⊙ s - w ⊙ (gains p)).
    """
    _check_compatible(s, gains, acts)
    data, curv, _ = _expand_at(s, gains, acts)
    return curv - data


def compute_reweights(p_prev: np.ndarray, epsilon: float) -> ReweightMatrix:
    """Quadratic transition weights from the previous activations.

    Interior column t (1..T-1) is 1 / ((p[:,t] - p[:,t-1])^2 + epsilon);
    columns 0 and T are zero so boundary slots have no phantom neighbor.
    Note epsilon is added as-is here but squared in penalty_smoothed.
    """
    _check_epsilon(epsilon)
    w = _reweights(_transitions(np.asarray(p_prev, dtype=np.float64)), epsilon)
    return ReweightMatrix(np.pad(w, ((0, 0), (1, 1))))


def update_activations(s: MaskedMatrix, gains: np.ndarray, p_i: np.ndarray,
                       y: ReweightMatrix, cfg: SolverConfig) -> np.ndarray:
    """One activation sweep over all time slots (neighbors read from p_i)."""
    acts = np.asarray(p_i, dtype=np.float64)
    _check_compatible(s, np.asarray(gains), acts)
    if y.weights.shape != (acts.shape[0], acts.shape[1] + 1):
        raise ShapeMismatchError(
            f"reweights shape {y.weights.shape} does not match activations "
            f"{acts.shape}"
        )
    data, curv, _ = _expand_at(s, np.asarray(gains, dtype=np.float64), acts)
    return _activation_step(acts, data, curv, y.weights[:, 1:-1], cfg.beta, cfg.guard)[0]


def update_gains(s: MaskedMatrix, f_i: FactorPair, cfg: SolverConfig) -> np.ndarray:
    """Multiplicative gains update with masked data.

        gains <- gains * ((W ⊙ S) P^T) / ((W ⊙ (gains P)) P^T + guard)

    Nonnegativity is preserved and zero entries stay zero. The guard keeps
    masked-out rows from producing 0/0.
    """
    _check_compatible(s, f_i.gains, f_i.activations)
    gains, acts = f_i.gains, f_i.activations
    return _gains_step(s.values, s.mask * (gains @ acts), gains, acts, cfg.guard)


def rescale(pair: FactorPair) -> FactorPair:
    """Normalize gains columns to unit 2-norm, absorbing scale into activations.

    The reconstruction is unchanged up to rounding. Raises
    DegenerateFactorError for a zero-norm column.
    """
    return FactorPair(*_rescale(pair.gains, pair.activations))


def surrogate_per_slot(s: MaskedMatrix, gains: np.ndarray, p_new: np.ndarray,
                       p_ref: np.ndarray, y: ReweightMatrix, beta: float) -> np.ndarray:
    """Penalized quadratic surrogate, one value per time slot.

    Second-order expansion of the slot fit around p_ref with the diagonal
    curvature curv/p_ref, plus the reweighted quadratic transition terms
    toward the slot's frozen neighbors (each slot sees both its adjacent
    transitions). Touches the slot fit at p_new == p_ref when beta == 0;
    the activation sweep cannot increase it.
    """
    gains = np.asarray(gains, dtype=np.float64)
    p_new = np.asarray(p_new, dtype=np.float64)
    p_ref = np.asarray(p_ref, dtype=np.float64)
    _check_compatible(s, gains, p_ref)
    data, curv, sq_resid = _expand_at(s, gains, p_ref)
    c_ref = 0.5 * sq_resid.sum(axis=0)
    grad = curv - data
    curvature = curv / p_ref
    d = p_new - p_ref
    quad = c_ref + (d * grad).sum(axis=0) + 0.5 * (curvature * d * d).sum(axis=0)
    w = y.weights[:, 1:-1]
    trans = np.zeros_like(p_ref)
    trans[:, 1:] = w * np.square(p_new[:, 1:] - p_ref[:, :-1])
    trans[:, :-1] += w * np.square(p_ref[:, 1:] - p_new[:, :-1])
    return quad + beta * trans.sum(axis=0)


# --------------------------------------------------------------------- loops

def _init_factors(rng: np.random.Generator, n_rows: int, rank: int,
                  n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    # Strictly positive init keeps the multiplicative updates alive; the
    # 0.1 offset keeps the initial curvature estimates finite.
    gains = rng.uniform(0.1, 1.1, size=(n_rows, rank))
    acts = rng.uniform(0.1, 1.1, size=(rank, n_cols))
    return gains, acts


def _check_finite(iteration: int, *arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise NumericFailureError(iteration)


def solve(s: MaskedMatrix, cfg: SolverConfig, *,
          record_factors: bool = False) -> tuple[FactorPair, SolveTrace]:
    """Alternate activation and gains updates until convergence.

    Each outer iteration: recompute transition weights from the previous
    activations, sweep all activation slots, update the gains, renormalize.
    Stops when the relative objective change falls below cfg.rel_tol or
    after cfg.max_iters iterations. Returns the final pair and a trace;
    with record_factors=True the trace also keeps every iterate.
    """
    silent = np.flatnonzero(s.mask.sum(axis=1) == 0)
    if silent.size:
        warnings.warn(
            f"rows {silent.tolist()} have no observed entries; "
            "their reconstruction is unconstrained",
            stacklevel=2,
        )

    values, mask, beta, eps, guard = s.values, s.mask, cfg.beta, cfg.epsilon, cfg.guard
    rng = np.random.default_rng(cfg.init_seed)
    gains, acts = _init_factors(rng, s.n_rows, cfg.rank, s.n_cols)
    trace = SolveTrace(iterates=[] if record_factors else None)
    if record_factors:
        trace.initial = FactorPair(gains, acts)
    wgp, fit, d2, pen = _state(values, mask, gains, acts, eps)
    prev_obj = fit + beta * pen

    for iteration in range(1, cfg.max_iters + 1):
        acts_new, clamped = _activation_step(acts, gains.T @ values, gains.T @ wgp,
                                             _reweights(d2, eps), beta, guard)
        wgp_new, _, fit_after_p = _masked_fit(values, mask, gains, acts_new)
        gains_new = _gains_step(values, wgp_new, gains, acts_new, guard)
        _check_finite(iteration, acts_new, gains_new)

        # A dead component cannot be renormalized; restart it from the init
        # distribution and let the next iterations repurpose it.
        gains, acts = _rescale(gains_new, acts_new, rng)

        wgp, fit, d2, pen = _state(values, mask, gains, acts, eps)
        obj = fit + beta * pen
        trace.records.append(
            IterationRecord(
                iteration=iteration,
                fit_after_p=fit_after_p,
                fit=fit,
                penalty=pen,
                objective=obj,
                clamped=clamped,
            )
        )
        if record_factors:
            trace.iterates.append(
                IterateSnapshot(
                    activations_updated=acts_new.copy(),
                    gains_updated=gains_new.copy(),
                    pair=FactorPair(gains, acts),
                )
            )

        rel = abs(prev_obj - obj) / max(abs(prev_obj), guard)
        prev_obj = obj
        if rel < cfg.rel_tol:
            break

    return FactorPair(gains, acts), trace


def infer_activations(s: MaskedMatrix, gains_fixed: np.ndarray,
                      cfg: SolverConfig) -> np.ndarray:
    """Estimate activations for frozen gains (no gains update, no rescale).

    Runs the reweight + activation sweep loop with the given gains until the
    relative objective change drops below cfg.rel_tol or cfg.max_iters.
    """
    gains = np.asarray(gains_fixed, dtype=np.float64)
    if gains.ndim != 2 or gains.shape[0] != s.n_rows:
        raise ShapeMismatchError(
            f"gains shape {gains.shape} incompatible with {s.n_rows} sensor rows"
        )
    if not np.isfinite(gains).all():
        raise ValueError("gains must be finite")
    if (gains < 0).any():
        raise ValueError("gains must be nonnegative")

    values, mask, beta, eps, guard = s.values, s.mask, cfg.beta, cfg.epsilon, cfg.guard
    rng = np.random.default_rng(cfg.init_seed)
    acts = rng.uniform(0.1, 1.1, size=(gains.shape[1], s.n_cols))
    # Calibrate the starting scale to the observed data. With frozen gains
    # there is no rescaling channel, and once the reweighted penalty
    # saturates it freezes the multiplicative scale adaptation, so an init
    # orders of magnitude off would never recover within the budget.
    observed = mask.sum()
    if observed > 0:
        rec_mean = float((mask * (gains @ acts)).sum() / observed)
        if rec_mean > 0:
            acts = acts * (float(values.sum() / observed) / rec_mean)
            acts = np.maximum(acts, ACTIVATION_FLOOR)
    data = gains.T @ values
    wgp, fit, d2, pen = _state(values, mask, gains, acts, eps)
    prev_obj = fit + beta * pen
    for iteration in range(1, cfg.max_iters + 1):
        acts, _ = _activation_step(acts, data, gains.T @ wgp, _reweights(d2, eps),
                                   beta, guard)
        _check_finite(iteration, acts)
        wgp, fit, d2, pen = _state(values, mask, gains, acts, eps)
        obj = fit + beta * pen
        rel = abs(prev_obj - obj) / max(abs(prev_obj), guard)
        prev_obj = obj
        if rel < cfg.rel_tol:
            break
    return acts
