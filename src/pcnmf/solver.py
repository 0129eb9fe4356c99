"""Masked NMF with a piecewise-constant activation penalty.

Minimizes, over nonnegative gains and activations,

    fit + beta * penalty,   with
    fit     = sum_{r,t} w_rt * 0.5 * (s_rt - sum_j gains_rj * act_jt)^2
    penalty = sum_{j, t>=2} rho(act_jt - act_j(t-1)),  rho(x) = x^2/(x^2+eps^2)

by majorization-minimization: each outer iteration of solve recomputes
quadratic transition weights from the previous activations (iterative
reweighting), takes one closed-form activation sweep, one multiplicative
gains update, and renormalizes the gains columns to unit 2-norm (absorbing
scale into the activations) to stop the penalty from draining the
activations to zero. infer_activations, with the gains frozen, starts from
the raw init draw and minimizes the same two majorizers jointly along time
instead of slot by slot: one tridiagonal solve per activation row, for the
increment from the current activations. At beta = 0, or with a single slot,
no slot is coupled and it takes the sweep itself.

With beta = 0 and a full mask the updates coincide, in exact arithmetic and
elementwise in floating point, with the classical Euclidean multiplicative
NMF rules; the weighted variant handles missing entries by masking both the
data and the current reconstruction.

One MM kernel. Every formula of the iteration is written once, in the
private helpers below; `solve`, `infer_activations` and the public step
functions (`compute_reweights`, `surrogate_per_slot`) all call them. With G
the gains, P the activations and W the mask, one `solve` iteration computes
six products:

    G^T (W ⊙ S), G^T (W ⊙ G P)                expansion around P
    G P_new                                    gains denominator
    (W ⊙ S) P_new^T, (W ⊙ G P_new) P_new^T     gains update
    G P after the rescale                      the new state

`infer_activations` freezes the gains, so it computes G^T (W ⊙ S) once
before its loop and two products per iteration, G^T (W ⊙ G P) and G P.
At beta > 0 its joint step then reduces the K tridiagonal systems in
ceil(log2 T) levels of twelve elementwise passes over K x T each; at the
paper shape (K = 5, T = 600) those levels cost more than both products.
Besides its levels the joint step makes nineteen passes over K x T, six
of them for the residual and two to count its clamps.
The state at the end of an iteration (W ⊙ G P and d^2 = diff(P)^2) is
carried into the next one: W ⊙ G P feeds the next curvature, and d^2 both
the penalty term of the stop objective and the next reweights. The
reweights are one K x (T-1) array, one weight per transition, everywhere:
compute_reweights returns it, surrogate_per_slot takes it, and a slot
reads its neighbors and their weights from it by slicing. At beta = 0 the
penalty terms of both steps are exact zeros, so neither loop computes
reweights, and the sweep skips its neighbor terms.

One MM loop. solve and infer_activations each hand _descend their start (fit,
penalty) and a step that returns the next one and its clamp count. Each loop
takes one penalty pair (_Penalty): _state, which computes every state of both
loops, adds the pair's value to the fit, and the steps take its weights. The
note at the pairs says how epsilon enters them twice. _descend alone counts
iterations, stops on the relative change of fit + beta * penalty and builds
the SolveTrace both return.
Each step checks its iterates for non-finite values itself, before it rescales
or records them. No step evaluates the surrogate: surrogate_per_slot checks MM
monotonicity after the fact on solve(..., record_factors=True) iterates.

One workspace per call. solve and infer_activations each size one
_Workspace from (N, K, T) before their loop, and the helpers write every
intermediate into it through ufunc out=, np.matmul(..., out=) and
np.dot(..., out=): two N x T buffers (W ⊙ G P, the residual), two
K x (T-1) ones (d^2, the reweights) and the K x T ones of the sweep and of
the joint step. An iteration allocates only its new iterates, which may
outlive it (returned pairs, snapshots) and so are never workspace buffers,
and the copies numpy takes of the couplings a reduction level overwrites.
The four products with a transposed operand (G^T on the left, P^T on the
right) go through np.dot, which costs less per call than np.matmul at
these small shapes and gives its result bit for bit (the kernel oracle pins
this against the @ of the reference loops). Besides its six products, a solve
iteration makes five elementwise passes over N x T: the mask after the
sweep, for the gains denominator, then the mask, residual, square and sum
after the rescale. The fit between the sweep and the gains update serves no
output, so it is not evaluated. infer_activations makes four, besides its
reduction levels over K x T.
Over K x T the sweep makes sixteen passes at beta > 0 and six at beta = 0,
one the floor of its denominator. Over K x (T-1) each loop makes seven at
beta > 0 (d^2, the penalty terms and their sum, the reweights); at beta = 0
solve makes five, for the traced penalty, and infer_activations none.
weighted_fit, fit_gradient and surrogate_per_slot give the same helpers a
fresh workspace per call. Each in-place operation does the arithmetic of
the plain numpy expression it spells out, in the same order, so the
iterates equal those of the reference loops in tests/reference_solver.py
bit for bit.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from ._config import Config, check_field, ranged
from .matrices import FactorPair, MaskedMatrix, nonnegative, write_csv

# Activations are floored here after every update: the diagonal majorizer
# divides by the current activation, so an exact zero would lock the
# multiplicative update at zero and poison the next curvature estimate.
ACTIVATION_FLOOR = 1e-12
# The floor of every denominator, so that a row that sees no data never gives 0/0.
GUARD = 1e-12


class NumericFailureError(RuntimeError):
    """Non-finite value appeared in a solver iterate."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite iterate at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class SolverConfig(Config):
    """Solver parameters.

    beta     : weight of the piecewise-constant penalty (0 disables it,
               giving plain weighted NMF).
    epsilon  : smoothing constant of the penalty (see the penalty pairs).
    rank     : number of factors K.
    max_iters, rel_tol : stop after max_iters outer iterations, or after the
               first whose relative change of fit + beta * penalty is below
               rel_tol (so rel_tol = 0 runs exactly max_iters), with the
               penalty of the loop's pair.
    init_seed: seed for the uniform (0.1, 1.1) factor initialization.

    Each field's range is declared beside its default, with _config.ranged.
    """

    beta: float = ranged(5e-3, 0)
    epsilon: float = ranged(1e-6, 0, strict=True)
    rank: int = ranged(5, 1)
    max_iters: int = ranged(1000, 1)
    rel_tol: float = ranged(1e-8, 0)
    init_seed: int = ranged(0, 0)


@dataclass(frozen=True)
class IterationRecord:
    """One outer iteration of solve's or infer_activations' trace.

    Evaluated at the end of the iteration, after solve's rescale, with
    objective == fit + beta * penalty, the value the stop test reads, and
    penalty the value of the loop's penalty pair (penalty_smoothed for solve),
    0 for inference at beta = 0. clamped counts the sweep's guarded
    denominators, or the curvatures the joint step floors at GUARD. With record_factors=True, the
    unevaluated fit between solve's two steps is
    weighted_fit(s, FactorPair(previous gains, activations_updated)).
    """

    iteration: int
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
    """The records of one solve or inference, why its loop stopped ("rel_tol"
    or "max_iters"), and solve's iterates and start when record_factors=True."""

    records: list[IterationRecord] = field(default_factory=list)
    iterates: list[IterateSnapshot] | None = None
    initial: FactorPair | None = None
    stop_reason: str | None = None

    @property
    def iterations(self) -> int:
        return len(self.records)

    def to_csv(self, path) -> None:
        """Export as CSV with columns iter,fit,penalty,objective,clamped."""
        write_csv(path, ["iter", "fit", "penalty", "objective", "clamped"],
                  (f"{rec.iteration},{rec.fit},{rec.penalty},{rec.objective},{rec.clamped}\n"
                   for rec in self.records))


# ------------------------------------------------------------------ MM kernel

class _Workspace:
    """Scratch buffers of one MM call, sized once from N x K gains and
    K x T activations.

    The kernel helpers write every intermediate into these buffers through
    ufunc out=, np.matmul(..., out=) and np.dot(..., out=), so an iteration
    allocates only its new iterates. No buffer ever leaves the call: what a
    helper returns from here is read before the next helper overwrites it.
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
        self.lower = np.empty((rank, n_cols))           # joint step's couplings
        self.upper = np.empty((rank, n_cols))
        self.flat = np.empty((4, rank * n_cols))        # its residual, then factors
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
    """sum rho(d) = sum d^2 / (d^2 + epsilon^2): the smoothed transition count."""
    terms = np.add(d2, epsilon * epsilon, out=scratch)
    return float(np.divide(d2, terms, out=terms).sum())


def _log_penalty(d2: np.ndarray, epsilon: float, scratch=None) -> float:
    """sum log1p(d^2 / epsilon): the log penalty the reweights majorize, less its constant."""
    terms = np.divide(d2, epsilon, out=scratch)
    return float(np.log1p(terms, out=terms).sum())


def _reweights(d2: np.ndarray, epsilon: float, out=None) -> np.ndarray:
    """K x (T-1) transition weights 1 / (d^2 + epsilon), into out."""
    w = np.add(d2, epsilon, out=out)
    return np.divide(1.0, w, out=w)


# A penalty as an MM loop uses it: value(d2, epsilon, scratch) is what _state adds
# to the fit for the trace and the stop test, weights(d2, epsilon, out) the
# K x (T-1) reweights its steps take. Epsilon enters in two ways. The weights
# 1 / (d^2 + epsilon) add it as-is to a squared difference, and are the MM weights
# of the log penalty sum log(d^2 + epsilon), while rho(d) = d^2 / (d^2 + epsilon^2)
# squares it. Inference traces the log penalty less its constant sum log(epsilon),
# which a relative-change test could never see past; both majorizers of its joint
# step touch that objective at the current activations, so no step can raise it.
_Penalty = namedtuple("_Penalty", "value weights")
_INFER_PENALTY = _Penalty(_log_penalty, _reweights)
_SOLVE_PENALTY = _Penalty(_penalty, _reweights)  # traces rho, descends the log penalty: a mismatch


def _state(ws, values, mask, gains, acts, penalty, epsilon):
    """Everything the next iteration reuses from one (gains, acts) state, for both loops.

    Returns (fit, penalty.value) and leaves W ⊙ G P in ws.wgp and d^2 in ws.d2;
    with penalty None (inference at beta = 0) the penalty is 0.0 and no d^2 is computed.
    """
    fit = _masked_fit(ws, values, mask, gains, acts)
    return fit, penalty.value(_transitions(acts, ws.d2), epsilon, ws.scratch) if penalty else 0.0


def _activation_step(ws, p, data, curv, w, beta: float):
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

    so the first and last slots see one neighbor each. At beta = 0 the pull
    and wsum terms are exact zeros, so they are skipped (w may be None) and
    the step is p * data / curv, the multiplicative Euclidean update: the
    one uncoupled update, which infer_activations takes too wherever no slot
    is coupled. As in the joint step, the denominator is floored at GUARD
    unconditionally and clamped counts where. Writes ws.pull, ws.wsum, ws.den
    and ws.low; the new acts are a fresh array.
    """
    pull, wsum, den = ws.pull, ws.wsum, ws.den
    if beta:
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
    else:
        num = np.multiply(data, p, out=pull)
        den = curv
    clamped = int(np.count_nonzero(np.less(den, GUARD, out=ws.low)))
    new = np.divide(num, np.maximum(den, GUARD, out=ws.den))
    return np.maximum(new, ACTIVATION_FLOOR, out=new), clamped


def _joint_activation_step(ws, p, data, curv, w, beta: float):
    """One activation step solved jointly along time; returns (new acts, clamped).

    Minimizes the two majorizers of _activation_step, the diagonal fit
    majorizer with curvature c = max(curv, GUARD) / p and the reweighted
    quadratic beta * sum w * d^2, over all slots at once instead of slot by
    slot with frozen neighbors. Per component row that is the tridiagonal
    system (diag(c) + 2*beta*L_w) new = data, L_w the path Laplacian with
    weights w, solved here with each row t multiplied by p_t:

        -lower_t new_(t-1) + diag_t new_t - upper_t new_(t+1) = data_t p_t
        lower[:, 1:] = 2*beta * w * p[:, 1:],  upper[:, :-1] = 2*beta * w * p[:, :-1]
        diag = max(curv, GUARD) + lower + upper

    diag is _activation_step's denominator, with GUARD taken on curv alone
    (clamped counts where) so that every row stays strictly diagonally
    dominant, also a row that sees no data (curv = 0), where the system
    would be singular. The matrix is then an M-matrix and the right side
    is >= 0, so new >= 0.

    The system is solved for the increment new - p, whose right side is the
    residual data_t p_t - (diag_t p_t - lower_t p_(t-1) - upper_t p_(t+1)),
    and new = max(p + increment, ACTIVATION_FLOOR). The residual vanishes as
    the iterates converge, so the rounding of the reduction shrinks with it
    instead of jittering the iterates near a plateau. Only coupled slots
    need this step: it takes beta > 0 and T > 1. Writes ws.den, ws.pull,
    ws.low, ws.lower, ws.upper and ws.flat; the new acts are a fresh array.
    """
    clamped = int(np.count_nonzero(np.less(curv, GUARD, out=ws.low)))
    diag = np.maximum(curv, GUARD, out=ws.den)
    rhs = np.multiply(data, p, out=ws.pull)
    two_beta, lower, upper = 2.0 * beta, ws.lower, ws.upper
    lower[:, :1] = 0.0
    np.multiply(w, p[:, 1:], out=lower[:, 1:])
    np.multiply(two_beta, lower, out=lower)
    upper[:, -1:] = 0.0
    np.multiply(w, p[:, :-1], out=upper[:, :-1])
    np.multiply(two_beta, upper, out=upper)
    np.add(diag, lower, out=diag)
    np.add(diag, upper, out=diag)
    # The residual, on the flat K*T layout of _reduce_rows and in the rows of
    # ws.flat it reuses: lower and upper are zero where a product would
    # reach into a neighboring row, so those terms subtract exact zeros.
    a_p, term = ws.flat[0], ws.flat[1, :-1]
    flat_p, flat_lower, flat_upper = (a.reshape(-1) for a in (p, lower, upper))
    np.multiply(diag.reshape(-1), flat_p, out=a_p)
    a_p[1:] -= np.multiply(flat_lower[1:], flat_p[:-1], out=term)
    a_p[:-1] -= np.multiply(flat_upper[:-1], flat_p[1:], out=term)
    np.subtract(rhs, a_p.reshape(p.shape), out=rhs)
    _reduce_rows(ws, p.shape[1])
    new = np.divide(rhs, diag)
    np.add(p, new, out=new)
    return np.maximum(new, ACTIVATION_FLOOR, out=new), clamped


def _reduce_rows(ws, n_cols: int) -> None:
    """Decouple the tridiagonal rows in ws by parallel cyclic reduction.

    Level s adds to each equation the multiples of the equations s slots
    before and after it that cancel its couplings to those slots, which
    couples it to the slots 2s away instead. Once s reaches T no coupling
    is left and new = rhs / diag. All K rows are reduced at once on the flat
    K*T layout: lower is zero in a row's first s slots and upper in its last
    s, so the factors that would reach into a neighboring row are exact
    zeros. Overwrites ws.lower, ws.den, ws.upper and ws.pull in place; numpy
    buffers an input that overlaps its output, so couplings read the old ones.
    """
    lower, diag, upper, rhs = (a.reshape(-1) for a in (ws.lower, ws.den, ws.upper, ws.pull))
    s = 1
    while s < n_cols:
        k_lo, k_up, add_lo, add_up = ws.flat[:, :lower.size - s]
        np.divide(lower[s:], diag[:-s], out=k_lo)   # cancels new_(t-s)
        np.divide(upper[:-s], diag[s:], out=k_up)   # cancels new_(t+s)
        diag[s:] -= np.multiply(k_lo, upper[:-s], out=add_lo)
        diag[:-s] -= np.multiply(k_up, lower[s:], out=add_up)
        np.multiply(k_lo, rhs[:-s], out=add_lo)
        np.multiply(k_up, rhs[s:], out=add_up)
        rhs[s:] += add_lo
        rhs[:-s] += add_up
        np.multiply(k_lo, lower[:-s], out=lower[s:])  # couplings 2s away
        np.multiply(k_up, upper[s:], out=upper[:-s])
        s *= 2


def _gains_step(ws, values, gains, acts):
    """gains * ((W ⊙ S) P^T) / ((W ⊙ G P) P^T + GUARD), W ⊙ G P from ws.wgp.

    Returns a fresh array. GUARD keeps an unobserved row from giving 0/0.
    """
    num = np.dot(values, acts.T, out=ws.gains_num)
    den = np.dot(ws.wgp, acts.T, out=ws.gains_den)
    np.add(den, GUARD, out=den)
    return np.multiply(gains, num, out=num) / den


def _column_norms(gains):
    """np.linalg.norm(gains, axis=0), by numpy's own formula for it."""
    return np.sqrt(np.add.reduce(gains * gains, axis=0))


def _rescale(gains, acts, rng):
    """Unit-norm gains columns, with the column scale moved into acts.

    A zero-norm column is first redrawn from the init distribution with rng,
    in a copy that leaves the caller's gains as they were, so a dead
    component restarts instead of dividing by zero.
    """
    norms = _column_norms(gains)
    if not norms.all():
        dead = np.flatnonzero(norms == 0)
        gains = gains.copy()
        gains[:, dead] = _init_draw(rng, (gains.shape[0], dead.size))
        norms = _column_norms(gains)
    return gains / norms, acts * norms[:, None]


# ------------------------------------------------------- public step functions

def _pair(s: MaskedMatrix, gains, acts) -> tuple[np.ndarray, np.ndarray]:
    """(gains, acts) through nonnegative: N x K gains for the N sensors of s, K x T acts."""
    gains = nonnegative(gains, "gains", shape=(s.n_rows, "K"))
    return gains, nonnegative(acts, "activations", shape=(gains.shape[1], s.n_cols))


def weighted_fit(s: MaskedMatrix, pair: FactorPair) -> float:
    """Half the mask-weighted squared reconstruction error."""
    gains, acts = _pair(s, pair.gains, pair.activations)
    return _masked_fit(_Workspace(gains, acts), s.values, s.mask, gains, acts)


def penalty_smoothed(activations: np.ndarray, epsilon: float) -> float:
    """Smoothed transition count of the activation rows.

    Each consecutive difference d contributes d^2 / (d^2 + epsilon^2),
    which is 0 for a flat pair and approaches 1 for any clear transition.
    """
    epsilon = check_field(SolverConfig, "epsilon", epsilon)
    return _penalty(_transitions(nonnegative(activations, "activations")), epsilon)


def objective(s: MaskedMatrix, pair: FactorPair, cfg: SolverConfig) -> float:
    """weighted_fit + beta * penalty_smoothed."""
    return weighted_fit(s, pair) + cfg.beta * penalty_smoothed(
        pair.activations, cfg.epsilon
    )


def _expand_at(ws, s: MaskedMatrix, gains: np.ndarray, p: np.ndarray):
    """(G^T (W ⊙ S), G^T (W ⊙ G p), squared residual) at activations p."""
    _masked_fit(ws, s.values, s.mask, gains, p)
    return (np.dot(gains.T, s.values, out=ws.data),
            np.dot(gains.T, ws.wgp, out=ws.curv), ws.resid)


def fit_gradient(s: MaskedMatrix, gains: np.ndarray, acts: np.ndarray) -> np.ndarray:
    """Gradient of the weighted fit w.r.t. the activations, K x T.

    Per slot: -gains^T (w ⊙ s - w ⊙ (gains p)).
    """
    gains, acts = _pair(s, gains, acts)
    data, curv, _ = _expand_at(_Workspace(gains, acts), s, gains, acts)
    return curv - data


def compute_reweights(p_prev: np.ndarray, epsilon: float) -> np.ndarray:
    """Quadratic transition weights from the previous activations, K x (T-1).

    Column t is 1 / ((p[:,t+1] - p[:,t])^2 + epsilon), the weight of the
    transition from slot t to slot t+1; the first and last slots have one
    transition each, so no slot sees a phantom neighbor. These are the log
    penalty's MM weights (see the penalty pairs).
    """
    epsilon = check_field(SolverConfig, "epsilon", epsilon)
    return _reweights(_transitions(nonnegative(p_prev, "activations")), epsilon)


def surrogate_per_slot(s: MaskedMatrix, gains: np.ndarray, p_new: np.ndarray,
                       p_ref: np.ndarray, w: np.ndarray, beta: float) -> np.ndarray:
    """Penalized quadratic surrogate, one value per time slot.

    Second-order expansion of the slot fit around p_ref with the diagonal
    curvature curv/p_ref, plus the reweighted quadratic transition terms
    toward the slot's frozen neighbors (each slot sees both its adjacent
    transitions, weighted by the K x (T-1) w). Touches the slot fit at
    p_new == p_ref when beta == 0; the activation sweep cannot increase it.
    """
    beta = check_field(SolverConfig, "beta", beta)
    gains, p_ref = _pair(s, gains, p_ref)
    p_new = nonnegative(p_new, "activations", shape=p_ref.shape)
    w = nonnegative(w, "reweights", shape=(p_ref.shape[0], max(s.n_cols - 1, 0)))
    data, curv, sq_resid = _expand_at(_Workspace(gains, p_ref), s, gains, p_ref)
    c_ref = 0.5 * sq_resid.sum(axis=0)
    grad = curv - data
    curvature = curv / p_ref
    d = p_new - p_ref
    quad = c_ref + (d * grad).sum(axis=0) + 0.5 * (curvature * d * d).sum(axis=0)
    trans = np.zeros_like(p_ref)
    trans[:, 1:] = w * np.square(p_new[:, 1:] - p_ref[:, :-1])
    trans[:, :-1] += w * np.square(p_ref[:, 1:] - p_new[:, :-1])
    return quad + beta * trans.sum(axis=0)


# --------------------------------------------------------------------- loops

def _init_draw(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    # Strictly positive init keeps the multiplicative updates alive; the
    # 0.1 offset keeps the initial curvature estimates finite.
    return rng.uniform(0.1, 1.1, size=shape)


def _descend(step, start: tuple[float, float], cfg: SolverConfig) -> SolveTrace:
    """Run step(1), step(2), ... from the state start until cfg's stop rule.

    A state is the (fit, penalty) of _state; a step returns the next one and its
    clamp count. Returns the trace of every step and why the loop stopped.
    """
    fit, pen = start
    obj, records, stop_reason = fit + cfg.beta * pen, [], "max_iters"
    for iteration in range(1, cfg.max_iters + 1):
        fit, pen, clamped = step(iteration)
        prev, obj = obj, fit + cfg.beta * pen
        records.append(IterationRecord(
            iteration=iteration, fit=fit, penalty=pen, objective=obj, clamped=clamped))
        if abs(prev - obj) / max(abs(prev), GUARD) < cfg.rel_tol:
            stop_reason = "rel_tol"
            break
    return SolveTrace(records, stop_reason=stop_reason)


def _check_finite(iteration: int, *arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise NumericFailureError(iteration)


def solve(s: MaskedMatrix, cfg: SolverConfig, *,
          record_factors: bool = False) -> tuple[FactorPair, SolveTrace]:
    """Alternate activation and gains updates until convergence.

    Each outer iteration: recompute transition weights from the previous
    activations, sweep all activation slots, update the gains, renormalize,
    until cfg's stop rule on the traced objective fit + beta * penalty.
    Returns the final pair and a trace; with
    record_factors=True the trace also keeps every iterate.
    """
    silent = np.flatnonzero(s.mask.sum(axis=1) == 0)
    if silent.size:
        warnings.warn(
            f"rows {silent.tolist()} have no observed entries; "
            "their reconstruction is unconstrained",
            stacklevel=2,
        )

    values, mask, beta, eps, penalty = s.values, s.mask, cfg.beta, cfg.epsilon, _SOLVE_PENALTY
    rng = np.random.default_rng(cfg.init_seed)
    gains, acts = _init_draw(rng, (s.n_rows, cfg.rank)), _init_draw(rng, (cfg.rank, s.n_cols))
    initial, iterates = (FactorPair(gains, acts), []) if record_factors else (None, None)
    ws = _Workspace(gains, acts)

    def step(iteration):
        nonlocal gains, acts
        acts_new, clamped = _activation_step(
            ws, acts, np.dot(gains.T, values, out=ws.data),
            np.dot(gains.T, ws.wgp, out=ws.curv),
            penalty.weights(ws.d2, eps, ws.scratch) if beta else None, beta)
        _masked_product(ws, mask, gains, acts_new)
        gains_new = _gains_step(ws, values, gains, acts_new)
        _check_finite(iteration, acts_new, gains_new)

        # A dead component cannot be renormalized; restart it from the init
        # distribution and let the next iterations repurpose it.
        gains, acts = _rescale(gains_new, acts_new, rng)
        if record_factors:
            iterates.append(IterateSnapshot(acts_new, gains_new, FactorPair(gains, acts)))
        return *_state(ws, values, mask, gains, acts, penalty, eps), clamped

    trace = _descend(step, _state(ws, values, mask, gains, acts, penalty, eps), cfg)
    trace.initial, trace.iterates = initial, iterates
    return FactorPair(gains, acts), trace


def infer_activations(s: MaskedMatrix, gains_fixed: np.ndarray,
                      cfg: SolverConfig) -> tuple[FactorPair, SolveTrace]:
    """Estimate activations for frozen gains (no gains update, no rescale).

    gains_fixed is n_rows x cfg.rank, else ShapeMismatchError. Starts from
    the raw init draw of cfg.init_seed. Each iteration recomputes the
    reweights and takes one joint activation step
    (_joint_activation_step): the fit majorizer and the reweighted
    quadratic minimized over all slots at once, one tridiagonal solve per
    activation row, for the increment from the current activations. At
    beta = 0, or with a single slot, no slot is coupled and the step is
    solve's activation sweep itself (_activation_step), which sees the
    scale of the start only through rounding; at beta > 0 the joint step
    recovers that scale within a few iterations. Runs until cfg's stop rule on
    the objective its penalty pair traces and its joint step descends; at
    beta = 0 that is the fit, and no transition or reweight is computed.
    Returns (gains, activations) and the trace, as solve does.
    """
    gains = nonnegative(gains_fixed, "gains", shape=(s.n_rows, cfg.rank))
    values, mask, beta, eps = s.values, s.mask, cfg.beta, cfg.epsilon
    acts = _init_draw(np.random.default_rng(cfg.init_seed), (gains.shape[1], s.n_cols))
    ws = _Workspace(gains, acts)
    data = np.dot(gains.T, values, out=ws.data)
    coupled = beta > 0 and s.n_cols > 1
    penalty = _INFER_PENALTY if beta else None

    def step(iteration):
        nonlocal acts
        curv = np.dot(gains.T, ws.wgp, out=ws.curv)
        if coupled:
            acts, clamped = _joint_activation_step(
                ws, acts, data, curv, penalty.weights(ws.d2, eps, ws.scratch), beta)
        else:
            acts, clamped = _activation_step(ws, acts, data, curv, None, 0.0)
        _check_finite(iteration, acts)
        return *_state(ws, values, mask, gains, acts, penalty, eps), clamped

    trace = _descend(step, _state(ws, values, mask, gains, acts, penalty, eps), cfg)
    return FactorPair(gains, acts), trace
