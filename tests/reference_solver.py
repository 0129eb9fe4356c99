"""Reference copy of the MM solver loops, kept as a bit-identity oracle.

These are the `solve` and `infer_activations` loops as they were written
before the shared MM kernel in `pcnmf.solver`, with the step functions they
called, copied without change but for four: inference starts from the raw
init draw, as the kernel's does, not from a draw calibrated to the data's
mean; the loops read the denominator guard from the constant GUARD, not
from a config field of the same value; the trace record no longer holds the
fit between the sweep and the gains update, which no output read; and a
snapshot keeps the raw gains update, not the copy whose dead columns were
redrawn, as its docstring always said. Every iterate, trace record and
stop iteration of the kernel must equal what these loops produce, bit for
bit. Do not edit this file to follow the solver: a difference is a solver
bug.

At beta > 0, infer_activations takes a joint step along time instead of
the sweep, and stops on the objective that step descends;
infer_activations_joint at the end of this file is its reference, and
infer_activations here stays the beta = 0 one.
"""

from __future__ import annotations

import warnings

import numpy as np

from pcnmf.matrices import FactorPair, MaskedMatrix, ShapeMismatchError
from pcnmf.solver import (
    ACTIVATION_FLOOR,
    GUARD,
    IterateSnapshot,
    IterationRecord,
    NumericFailureError,
    SolverConfig,
    SolveTrace,
)


def _check_compatible(s: MaskedMatrix, gains: np.ndarray, acts: np.ndarray) -> None:
    if s.shape != (gains.shape[0], acts.shape[1]) or gains.shape[1] != acts.shape[0]:
        raise ShapeMismatchError(
            f"measurements {s.shape}, gains {gains.shape}, "
            f"activations {acts.shape} are incompatible"
        )


def _weighted_fit(values: np.ndarray, mask: np.ndarray,
                  gains: np.ndarray, acts: np.ndarray) -> float:
    resid = mask * (values - gains @ acts)
    return 0.5 * float(np.sum(resid * resid))


def penalty_smoothed(activations: np.ndarray, epsilon: float) -> float:
    """Smoothed transition count of the activation rows.

    Each consecutive difference d contributes d^2 / (d^2 + epsilon^2),
    which is 0 for a flat pair and approaches 1 for any clear transition.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    acts = np.asarray(activations, dtype=np.float64)
    if acts.shape[1] < 2:
        return 0.0
    d2 = np.square(np.diff(acts, axis=1))
    return float(np.sum(d2 / (d2 + epsilon * epsilon)))


def compute_reweights(p_prev: np.ndarray, epsilon: float) -> np.ndarray:
    """Quadratic transition weights from the previous activations.

    Interior column t (1..T-1) is 1 / ((p[:,t] - p[:,t-1])^2 + epsilon);
    columns 0 and T are zero so boundary slots have no phantom neighbor.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    acts = np.asarray(p_prev, dtype=np.float64)
    k, t = acts.shape
    weights = np.zeros((k, t + 1))
    if t >= 2:
        weights[:, 1:t] = 1.0 / (np.square(np.diff(acts, axis=1)) + epsilon)
    return weights


def _shift_right(acts: np.ndarray) -> np.ndarray:
    # left neighbors: column t holds acts[:, t-1], column 0 zero-filled
    out = np.zeros_like(acts)
    out[:, 1:] = acts[:, :-1]
    return out


def _shift_left(acts: np.ndarray) -> np.ndarray:
    # right neighbors: column t holds acts[:, t+1], last column zero-filled
    out = np.zeros_like(acts)
    out[:, :-1] = acts[:, 1:]
    return out


def _activation_step(values, mask, gains, acts, weights, beta, guard):
    """One reweighted activation sweep; returns (new acts, clamp count).

    Closed-form minimizer of the per-slot quadratic surrogate, written with
    numerator and denominator both multiplied by the current activation so
    no division by the iterate is needed:

        new = (data + 2*beta*(yl*left + yr*right)) * p
              -----------------------------------------
              curv + 2*beta*(yl + yr) * p

    with data = gains^T(w ⊙ s) and curv = gains^T(w ⊙ gains p). At beta = 0
    this is exactly p * data / curv, the multiplicative Euclidean update.
    """
    t = acts.shape[1]
    data = gains.T @ values
    curv = gains.T @ (mask * (gains @ acts))
    yl = weights[:, :t]
    yr = weights[:, 1:]
    two_beta = 2.0 * beta
    pen_num = two_beta * (yl * _shift_right(acts) + yr * _shift_left(acts))
    num = (data + pen_num) * acts
    den = curv + two_beta * (yl + yr) * acts
    low = den < guard
    clamped = int(np.count_nonzero(low))
    if clamped:
        den = np.maximum(den, guard)
    return np.maximum(num / den, ACTIVATION_FLOOR), clamped


def surrogate_per_slot(s: MaskedMatrix, gains: np.ndarray, p_new: np.ndarray,
                       p_ref: np.ndarray, y: np.ndarray, beta: float) -> np.ndarray:
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
    t = p_ref.shape[1]
    resid = s.mask * (s.values - gains @ p_ref)
    c_ref = 0.5 * np.sum(resid * resid, axis=0)
    grad = gains.T @ (s.mask * (gains @ p_ref)) - gains.T @ s.values
    curvature = (gains.T @ (s.mask * (gains @ p_ref))) / p_ref
    d = p_new - p_ref
    quad = c_ref + np.sum(d * grad, axis=0) + 0.5 * np.sum(curvature * d * d, axis=0)
    yl = y[:, :t]
    yr = y[:, 1:]
    left = yl * np.square(p_new - _shift_right(p_ref))
    right = yr * np.square(_shift_left(p_ref) - p_new)
    return quad + beta * np.sum(left + right, axis=0)


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

    rng = np.random.default_rng(cfg.init_seed)
    gains, acts = _init_factors(rng, s.n_rows, cfg.rank, s.n_cols)
    trace = SolveTrace(iterates=[] if record_factors else None)
    if record_factors:
        trace.initial = FactorPair(gains, acts)
    prev_obj = _weighted_fit(s.values, s.mask, gains, acts) + cfg.beta * (
        penalty_smoothed(acts, cfg.epsilon)
    )

    for iteration in range(1, cfg.max_iters + 1):
        reweights = compute_reweights(acts, cfg.epsilon)
        acts_new, clamped = _activation_step(
            s.values, s.mask, gains, acts, reweights, cfg.beta, GUARD
        )

        num = s.values @ acts_new.T
        den = (s.mask * (gains @ acts_new)) @ acts_new.T + GUARD
        gains_new = gains * num / den
        _check_finite(iteration, acts_new, gains_new)

        # A dead component cannot be renormalized; restart it from the init
        # distribution and let the next iterations repurpose it.
        norms = np.linalg.norm(gains_new, axis=0)
        gains_live = gains_new
        dead = np.flatnonzero(norms == 0)
        if dead.size:
            gains_live = gains_new.copy()
            gains_live[:, dead] = rng.uniform(0.1, 1.1, size=(s.n_rows, dead.size))
            norms = np.linalg.norm(gains_live, axis=0)

        gains = gains_live / norms
        acts = acts_new * norms[:, None]

        fit = _weighted_fit(s.values, s.mask, gains, acts)
        pen = penalty_smoothed(acts, cfg.epsilon)
        obj = fit + cfg.beta * pen
        trace.records.append(
            IterationRecord(
                iteration=iteration,
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

        rel = abs(prev_obj - obj) / max(abs(prev_obj), GUARD)
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
    if (gains < 0).any():
        raise ValueError("gains must be nonnegative")

    rng = np.random.default_rng(cfg.init_seed)
    acts = rng.uniform(0.1, 1.1, size=(gains.shape[1], s.n_cols))
    prev_obj = _weighted_fit(s.values, s.mask, gains, acts) + cfg.beta * (
        penalty_smoothed(acts, cfg.epsilon)
    )
    for iteration in range(1, cfg.max_iters + 1):
        reweights = compute_reweights(acts, cfg.epsilon)
        acts, _ = _activation_step(
            s.values, s.mask, gains, acts, reweights, cfg.beta, GUARD
        )
        _check_finite(iteration, acts)
        obj = _weighted_fit(s.values, s.mask, gains, acts) + cfg.beta * (
            penalty_smoothed(acts, cfg.epsilon)
        )
        rel = abs(prev_obj - obj) / max(abs(prev_obj), GUARD)
        prev_obj = obj
        if rel < cfg.rel_tol:
            break
    return acts


# --------------------------------------------------------------- joint step
#
# infer_activations solves each activation row jointly along time at
# beta > 0. The functions below are that step written out plainly: the same
# row-scaled tridiagonal system, solved for the increment from the current
# activations, and the same parallel cyclic reduction levels, one row per
# array row, with zeros wherever a slot has no neighbor s slots away. At
# beta = 0 the kernel must still equal the infer_activations above.

def _shifted(x: np.ndarray, s: int, fill: float = 0.0) -> np.ndarray:
    # column t holds x[:, t - s] for s > 0 and x[:, t + |s|] for s < 0;
    # fill where that slot does not exist
    out = np.full_like(x, fill)
    if s > 0:
        out[:, s:] = x[:, :-s]
    else:
        out[:, :s] = x[:, -s:]
    return out


def _joint_activation_step(values, mask, gains, acts, weights, beta, guard):
    """Minimize the fit majorizer and the reweighted quadratic jointly over t.

    Row j of the K tridiagonal systems, multiplied by acts[j, t] at slot t:

        -lower_t new_(t-1) + diag_t new_t - upper_t new_(t+1) = data_t acts_t

    with lower = 2*beta*yl*acts, upper = 2*beta*yr*acts and diag =
    max(curv, guard) + lower + upper. With T > 1 the right side is the
    residual of acts, and the solution is the increment new - acts. Each
    reduction level s adds to every equation the multiples of the equations
    s slots before and after it that cancel its couplings to them.
    """
    t = acts.shape[1]
    data = gains.T @ values
    curv = gains.T @ (mask * (gains @ acts))
    yl = weights[:, :t]
    yr = weights[:, 1:]
    two_beta = 2.0 * beta
    diag = np.maximum(curv, guard)
    rhs = data * acts
    if beta and t > 1:
        lower = two_beta * (yl * acts)
        upper = two_beta * (yr * acts)
        diag = diag + lower + upper
        rhs = rhs - (diag * acts - lower * _shifted(acts, 1) - upper * _shifted(acts, -1))
        s = 1
        while s < t:
            # lower is zero in the first s slots and upper in the last s,
            # where the diagonal they would divide by is a fill of ones
            k_lo = lower / _shifted(diag, s, 1.0)
            k_up = upper / _shifted(diag, -s, 1.0)
            diag = diag - k_lo * _shifted(upper, s) - k_up * _shifted(lower, -s)
            rhs = rhs + k_lo * _shifted(rhs, s) + k_up * _shifted(rhs, -s)
            lower = k_lo * _shifted(lower, s)
            upper = k_up * _shifted(upper, -s)
            s *= 2
        return np.maximum(acts + rhs / diag, ACTIVATION_FLOOR)
    return np.maximum(rhs / diag, ACTIVATION_FLOOR)


def _majorized(s: MaskedMatrix, gains: np.ndarray, acts: np.ndarray,
               cfg: SolverConfig) -> float:
    """fit + beta * sum log1p(d^2 / epsilon), the objective the joint step descends.

    The reweights 1 / (d^2 + epsilon) are the MM weights of sum log(d^2 +
    epsilon); this is that penalty less its constant sum log(epsilon).
    """
    d2 = np.square(np.diff(acts, axis=1))
    return _weighted_fit(s.values, s.mask, gains, acts) + cfg.beta * (
        float(np.sum(np.log1p(d2 / cfg.epsilon)))
    )


def infer_activations_joint(s: MaskedMatrix, gains_fixed: np.ndarray,
                            cfg: SolverConfig) -> np.ndarray:
    """infer_activations with _joint_activation_step in place of the sweep,
    stopping on the relative change of _majorized."""
    gains = np.asarray(gains_fixed, dtype=np.float64)
    if gains.ndim != 2 or gains.shape[0] != s.n_rows:
        raise ShapeMismatchError(
            f"gains shape {gains.shape} incompatible with {s.n_rows} sensor rows"
        )
    if (gains < 0).any():
        raise ValueError("gains must be nonnegative")

    rng = np.random.default_rng(cfg.init_seed)
    acts = rng.uniform(0.1, 1.1, size=(gains.shape[1], s.n_cols))
    prev_obj = _majorized(s, gains, acts, cfg)
    for iteration in range(1, cfg.max_iters + 1):
        reweights = compute_reweights(acts, cfg.epsilon)
        acts = _joint_activation_step(
            s.values, s.mask, gains, acts, reweights, cfg.beta, GUARD
        )
        _check_finite(iteration, acts)
        obj = _majorized(s, gains, acts, cfg)
        rel = abs(prev_obj - obj) / max(abs(prev_obj), GUARD)
        prev_obj = obj
        if rel < cfg.rel_tol:
            break
    return acts
