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

One workspace per call. solve and infer_activations each size one
_Workspace from (N, K, T) before their loop, and the helpers write every
intermediate into it through ufunc out= and np.matmul(..., out=): two
N x T buffers (W ⊙ G P, the residual), two K x (T-1) ones (d^2, the
reweights) and the K x T ones of the sweep. An iteration allocates only
its new iterates, which may outlive it (returned pairs, snapshots) and so
are never workspace buffers. Besides its six products, a solve iteration
makes eight elementwise passes over N x T (mask, residual, square and sum,
after the sweep and after the rescale); infer_activations makes four. The
public step functions give the same helpers a fresh workspace per call.
Each in-place operation does the arithmetic of the plain numpy expression
it spells out, in the same order, so the iterates equal those of the
reference loops in tests/reference_solver.py bit for bit.

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

class _Workspace:
    """Scratch buffers of one MM call, sized once from N x K gains and
    K x T activations.

    The kernel helpers write every intermediate into these buffers through
    ufunc out= and np.matmul(..., out=), so an iteration allocates only its
    new iterates. No buffer ever leaves the call: what a helper returns from
    here is read before the next helper overwrites it.
    """

    def __init__(self, gains: np.ndarray, acts: np.ndarray):
        (n_rows, rank), n_cols = gains.shape, acts.shape[1]
        self.wgp = np.empty((n_rows, n_cols))           # W ⊙ G P
        self.resid = np.empty((n_rows, n_cols))         # residual, then squared
        self.d2 = np.empty((rank, max(n_cols - 1, 0)))  # squared transitions
        self.scratch = np.empty_like(self.d2)           # penalty terms, reweights
        self.data = np.empty((rank, n_cols))            # G^T (W ⊙ S)
        self.curv = np.empty((rank, n_cols))            # G^T (W ⊙ G P)
        self.pull = np.empty((rank, n_cols))            # pull, then numerator
        self.wsum = np.empty((rank, n_cols))
        self.den = np.empty((rank, n_cols))
        self.low = np.empty((rank, n_cols), dtype=bool)
        self.gains_num = np.empty((n_rows, rank))
        self.gains_den = np.empty((n_rows, rank))


def _masked_product(ws, mask, gains, acts):
    """W ⊙ G P, into ws.wgp."""
    wgp = np.matmul(gains, acts, out=ws.wgp)
    return np.multiply(mask, wgp, out=wgp)


def _masked_fit(ws, values, mask, gains, acts) -> float:
    """Weighted fit at one (gains, acts) state.

    Leaves W ⊙ G P in ws.wgp and the squared residual in ws.resid.
    """
    wgp = _masked_product(ws, mask, gains, acts)
    # values is already zero where the mask is, so values - W ⊙ GP equals
    # W ⊙ (values - GP) up to the sign of a zero, which squaring removes.
    resid = np.subtract(values, wgp, out=ws.resid)
    np.multiply(resid, resid, out=resid)
    return 0.5 * float(resid.sum())


def _transitions(acts: np.ndarray, out=None) -> np.ndarray:
    """Squared consecutive differences d^2 along time, K x (T-1), into out."""
    d = np.subtract(acts[:, 1:], acts[:, :-1], out=out)
    return np.square(d, out=d)


def _penalty(d2: np.ndarray, epsilon: float, scratch=None) -> float:
    terms = np.add(d2, epsilon * epsilon, out=scratch)
    return float(np.divide(d2, terms, out=terms).sum())


def _reweights(d2: np.ndarray, epsilon: float, out=None) -> np.ndarray:
    """K x (T-1) transition weights 1 / (d^2 + epsilon), into out."""
    w = np.add(d2, epsilon, out=out)
    return np.divide(1.0, w, out=w)


def _state(ws, values, mask, gains, acts, epsilon):
    """Everything the next iteration reuses from one (gains, acts) state.

    Returns (fit, penalty) and leaves W ⊙ G P in ws.wgp and d^2 in ws.d2.
    """
    fit = _masked_fit(ws, values, mask, gains, acts)
    d2 = _transitions(acts, ws.d2)
    return fit, _penalty(d2, epsilon, ws.scratch)


def _activation_step(ws, p, data, curv, w, beta: float, guard: float):
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
    exactly p * data / curv, the multiplicative Euclidean update. Writes
    ws.pull, ws.wsum, ws.den and ws.low; the new acts are a fresh array.
    """
    pull, wsum, den = ws.pull, ws.wsum, ws.den
    pull[:, :1] = 0.0
    np.multiply(w, p[:, :-1], out=pull[:, 1:])
    # den is free until the end: hold w * p[:, 1:] there meanwhile.
    np.add(pull[:, :-1], np.multiply(w, p[:, 1:], out=den[:, :-1]), out=pull[:, :-1])
    wsum[:, :1] = 0.0
    wsum[:, 1:] = w
    np.add(wsum[:, :-1], w, out=wsum[:, :-1])
    two_beta = 2.0 * beta
    num = np.multiply(two_beta, pull, out=pull)
    np.add(data, num, out=num)
    np.multiply(num, p, out=num)
    np.multiply(two_beta, wsum, out=wsum)
    np.multiply(wsum, p, out=wsum)
    np.add(curv, wsum, out=den)
    clamped = int(np.count_nonzero(np.less(den, guard, out=ws.low)))
    if clamped:
        np.maximum(den, guard, out=den)
    new = np.divide(num, den)
    return np.maximum(new, ACTIVATION_FLOOR, out=new), clamped


def _gains_step(ws, values, gains, acts, guard):
    """gains * ((W ⊙ S) P^T) / ((W ⊙ G P) P^T + guard), W ⊙ G P from ws.wgp.

    Returns a fresh array.
    """
    num = np.matmul(values, acts.T, out=ws.gains_num)
    den = np.matmul(ws.wgp, acts.T, out=ws.gains_den)
    np.add(den, guard, out=den)
    return np.multiply(gains, num, out=num) / den


def _column_norms(gains):
    """np.linalg.norm(gains, axis=0), by numpy's own formula for it."""
    return np.sqrt(np.add.reduce(gains * gains, axis=0))


def _rescale(gains, acts, rng=None):
    """Unit-norm gains columns, with the column scale moved into acts.

    A zero-norm column raises DegenerateFactorError, unless rng is given:
    then the column is redrawn in place from the init distribution first.
    """
    norms = _column_norms(gains)
    if not norms.all():
        dead = np.flatnonzero(norms == 0)
        if rng is None:
            raise DegenerateFactorError(f"gains columns {dead.tolist()} have zero norm")
        gains[:, dead] = rng.uniform(0.1, 1.1, size=(gains.shape[0], dead.size))
        norms = _column_norms(gains)
    return gains / norms, acts * norms[:, None]


# ------------------------------------------------------- public step functions

def _check_epsilon(epsilon) -> None:
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be a finite number > 0, got {epsilon!r}")


def _as_activations(a) -> np.ndarray:
    acts = np.asarray(a, dtype=np.float64)
    if acts.ndim != 2:
        raise ShapeMismatchError(f"activations must be 2-D (K x T), got shape {acts.shape}")
    return acts


def _check_reweights(y: ReweightMatrix, acts: np.ndarray) -> None:
    if y.weights.shape != (acts.shape[0], acts.shape[1] + 1):
        raise ShapeMismatchError(
            f"reweights shape {y.weights.shape} does not match activations "
            f"{acts.shape}"
        )


def weighted_fit(s: MaskedMatrix, pair: FactorPair) -> float:
    """Half the mask-weighted squared reconstruction error."""
    gains, acts = pair.gains, pair.activations
    _check_compatible(s, gains, acts)
    return _masked_fit(_Workspace(gains, acts), s.values, s.mask, gains, acts)


def penalty_smoothed(activations: np.ndarray, epsilon: float) -> float:
    """Smoothed transition count of the activation rows.

    Each consecutive difference d contributes d^2 / (d^2 + epsilon^2),
    which is 0 for a flat pair and approaches 1 for any clear transition.
    """
    _check_epsilon(epsilon)
    return _penalty(_transitions(_as_activations(activations)), epsilon)


def objective(s: MaskedMatrix, pair: FactorPair, cfg: SolverConfig) -> float:
    """weighted_fit + beta * penalty_smoothed."""
    return weighted_fit(s, pair) + cfg.beta * penalty_smoothed(
        pair.activations, cfg.epsilon
    )


def _expand_at(ws, s: MaskedMatrix, gains: np.ndarray, p: np.ndarray):
    """(G^T (W ⊙ S), G^T (W ⊙ G p), squared residual) at activations p."""
    _masked_fit(ws, s.values, s.mask, gains, p)
    return (np.matmul(gains.T, s.values, out=ws.data),
            np.matmul(gains.T, ws.wgp, out=ws.curv), ws.resid)


def fit_gradient(s: MaskedMatrix, gains: np.ndarray, acts: np.ndarray) -> np.ndarray:
    """Gradient of the weighted fit w.r.t. the activations, K x T.

    Per slot: -gains^T (w ⊙ s - w ⊙ (gains p)).
    """
    _check_compatible(s, gains, acts)
    data, curv, _ = _expand_at(_Workspace(gains, acts), s, gains, acts)
    return curv - data


def compute_reweights(p_prev: np.ndarray, epsilon: float) -> ReweightMatrix:
    """Quadratic transition weights from the previous activations.

    Interior column t (1..T-1) is 1 / ((p[:,t] - p[:,t-1])^2 + epsilon);
    columns 0 and T are zero so boundary slots have no phantom neighbor.
    Note epsilon is added as-is here but squared in penalty_smoothed.
    """
    _check_epsilon(epsilon)
    w = _reweights(_transitions(_as_activations(p_prev)), epsilon)
    return ReweightMatrix(np.pad(w, ((0, 0), (1, 1))))


def update_activations(s: MaskedMatrix, gains: np.ndarray, p_i: np.ndarray,
                       y: ReweightMatrix, cfg: SolverConfig) -> np.ndarray:
    """One activation sweep over all time slots (neighbors read from p_i)."""
    acts = np.asarray(p_i, dtype=np.float64)
    _check_compatible(s, np.asarray(gains), acts)
    _check_reweights(y, acts)
    gains = np.asarray(gains, dtype=np.float64)
    ws = _Workspace(gains, acts)
    data, curv, _ = _expand_at(ws, s, gains, acts)
    return _activation_step(ws, acts, data, curv, y.weights[:, 1:-1], cfg.beta,
                            cfg.guard)[0]


def update_gains(s: MaskedMatrix, f_i: FactorPair, cfg: SolverConfig) -> np.ndarray:
    """Multiplicative gains update with masked data.

        gains <- gains * ((W ⊙ S) P^T) / ((W ⊙ (gains P)) P^T + guard)

    Nonnegativity is preserved and zero entries stay zero. The guard keeps
    masked-out rows from producing 0/0.
    """
    _check_compatible(s, f_i.gains, f_i.activations)
    gains, acts = f_i.gains, f_i.activations
    ws = _Workspace(gains, acts)
    _masked_product(ws, s.mask, gains, acts)
    return _gains_step(ws, s.values, gains, acts, cfg.guard)


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
    if p_new.shape != p_ref.shape:
        raise ShapeMismatchError(
            f"p_new shape {p_new.shape} does not match p_ref {p_ref.shape}"
        )
    _check_reweights(y, p_ref)
    data, curv, sq_resid = _expand_at(_Workspace(gains, p_ref), s, gains, p_ref)
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
    ws = _Workspace(gains, acts)
    fit, pen = _state(ws, values, mask, gains, acts, eps)
    prev_obj = fit + beta * pen

    for iteration in range(1, cfg.max_iters + 1):
        acts_new, clamped = _activation_step(
            ws, acts, np.matmul(gains.T, values, out=ws.data),
            np.matmul(gains.T, ws.wgp, out=ws.curv),
            _reweights(ws.d2, eps, out=ws.scratch), beta, guard)
        fit_after_p = _masked_fit(ws, values, mask, gains, acts_new)
        gains_new = _gains_step(ws, values, gains, acts_new, guard)
        _check_finite(iteration, acts_new, gains_new)

        # A dead component cannot be renormalized; restart it from the init
        # distribution and let the next iterations repurpose it.
        gains, acts = _rescale(gains_new, acts_new, rng)

        fit, pen = _state(ws, values, mask, gains, acts, eps)
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
    ws = _Workspace(gains, acts)
    # Calibrate the starting scale to the observed data. With frozen gains
    # there is no rescaling channel, and once the reweighted penalty
    # saturates it freezes the multiplicative scale adaptation, so an init
    # orders of magnitude off would never recover within the budget.
    observed = mask.sum()
    if observed > 0:
        rec_mean = float(_masked_product(ws, mask, gains, acts).sum() / observed)
        if rec_mean > 0:
            acts = acts * (float(values.sum() / observed) / rec_mean)
            acts = np.maximum(acts, ACTIVATION_FLOOR)
    data = np.matmul(gains.T, values, out=ws.data)
    fit, pen = _state(ws, values, mask, gains, acts, eps)
    prev_obj = fit + beta * pen
    for iteration in range(1, cfg.max_iters + 1):
        acts, _ = _activation_step(ws, acts, data, np.matmul(gains.T, ws.wgp, out=ws.curv),
                                   _reweights(ws.d2, eps, out=ws.scratch), beta, guard)
        _check_finite(iteration, acts)
        fit, pen = _state(ws, values, mask, gains, acts, eps)
        obj = fit + beta * pen
        rel = abs(prev_obj - obj) / max(abs(prev_obj), guard)
        prev_obj = obj
        if rel < cfg.rel_tol:
            break
    return acts
