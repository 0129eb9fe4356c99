"""Experiment harness: two-phase estimation trials, sweeps, CSV emission.

A trial generates a scenario, learns the gains on a leading window of time
slots, re-estimates the activations for the whole horizon with the gains
frozen, and scores the reconstruction against the noiseless truth at the
missing positions. The plain weighted-NMF baseline is the same pipeline with
the transition penalty switched off, so both methods share one code path.

Trials are seeded from (master seed, trial index) and are therefore safe to
run in any order or in parallel; aggregation sorts by trial index first.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from ._config import check_dict
from .matrices import FactorPair, MaskedMatrix, write_csv
from .simulate import ScenarioConfig, generate_scenario
from .solver import NumericFailureError, SolverConfig, infer_activations, solve, weighted_fit

_METHODS = ("pcnmf", "wnmf")
_TRIAL_SCENARIO = 11
_TRIAL_INIT = 12


class UndefinedMetricError(ValueError):
    """Requested error metric has no entries to evaluate."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark protocol: scenario, solver, trial count, window, sweep."""

    scenario: ScenarioConfig = ScenarioConfig()
    solver: SolverConfig = SolverConfig()
    trials: int = 50
    gamma_window: int = 300
    sweep: tuple[tuple[str, tuple[float, ...]], ...] = ()
    methods: tuple[str, ...] = _METHODS

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 1 <= self.gamma_window <= self.scenario.t_slots:
            raise ValueError("gamma_window must be in [1, t_slots]")
        if not self.methods or any(m not in _METHODS for m in self.methods):
            raise ValueError(f"methods must be a nonempty subset of {_METHODS}")
        sweep = tuple(
            (str(param), tuple(float(v) for v in values))
            for param, values in self.sweep
        )
        for param, values in sweep:
            if param not in ("noise_var", "p_obs"):
                raise ValueError(f"unsupported sweep parameter {param!r}")
            if not values:
                raise ValueError(f"sweep over {param!r} has no values")
            for value in values:
                try:
                    replace(self.scenario, **{param: value})
                except ValueError as exc:
                    raise ValueError(f"sweep value {value!r} for {param!r}: {exc}") from None
        object.__setattr__(self, "sweep", sweep)
        object.__setattr__(self, "methods", tuple(self.methods))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["scenario"] = self.scenario.to_dict()
        d["sweep"] = [[param, list(values)] for param, values in self.sweep]
        d["methods"] = list(self.methods)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        check_dict(cls, d)
        d = dict(d)
        if "scenario" in d:
            d["scenario"] = ScenarioConfig.from_dict(d["scenario"])
        if "solver" in d:
            d["solver"] = SolverConfig.from_dict(d["solver"])
        if "sweep" in d and d["sweep"] is not None:
            d["sweep"] = tuple((p, tuple(v)) for p, v in d["sweep"])
        elif d.get("sweep") is None:
            d["sweep"] = ()
        if "methods" in d:
            d["methods"] = tuple(d["methods"])
        return cls(**d)


@dataclass(frozen=True)
class TrialResult:
    sweep_param: str
    sweep_value: float | None
    trial: int
    method: str
    seed: int
    rmse: float            # per-sensor RMSE averaged over sensors; NaN if undefined
    rmse_pooled: float     # pooled over all missing entries; NaN if undefined
    fit: float
    iterations: int
    seconds: float
    transitions: float     # mean per-row transition count, NaN when rank != n_pu
    failed: bool = False
    error: str = ""


def rmse_missing(reconstructed: np.ndarray, truth: np.ndarray,
                 mask: np.ndarray) -> float:
    """Per-sensor RMS error over missing entries, averaged across sensors.

    Only sensors with at least one missing entry contribute. Raises
    UndefinedMetricError when nothing is missing anywhere.
    """
    rec, tru, msk = (np.asarray(a, dtype=np.float64) for a in (reconstructed, truth, mask))
    if not rec.shape == tru.shape == msk.shape:
        raise ValueError("shapes must match")
    missing = msk == 0
    if not missing.any():
        raise UndefinedMetricError("no missing entries to evaluate")
    per_sensor = []
    for r in range(rec.shape[0]):
        sel = missing[r]
        if sel.any():
            err = rec[r, sel] - tru[r, sel]
            per_sensor.append(np.sqrt(np.mean(err * err)))
    return float(np.mean(per_sensor))


def rmse_missing_pooled(reconstructed: np.ndarray, truth: np.ndarray,
                        mask: np.ndarray) -> float:
    """RMS error pooled over every missing entry, all sensors together."""
    rec, tru, msk = (np.asarray(a, dtype=np.float64) for a in (reconstructed, truth, mask))
    missing = msk == 0
    if not missing.any():
        raise UndefinedMetricError("no missing entries to evaluate")
    err = rec[missing] - tru[missing]
    return float(np.sqrt(np.mean(err * err)))


def transition_count(activations: np.ndarray, threshold: float) -> np.ndarray:
    """Per-row count of consecutive differences larger than threshold."""
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    acts = np.asarray(activations, dtype=np.float64)
    return (np.abs(np.diff(acts, axis=1)) > threshold).sum(axis=1)


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row of a square cost matrix, minimizing the total.

    Hungarian method (Kuhn 1955; Munkres 1957) in its shortest-augmenting-path
    form with row and column potentials: each row is added by a Dijkstra-like
    search over reduced costs, vectorized over columns, so the whole
    assignment is O(K^3). Column ``k`` is a virtual start column.
    """
    k = cost.shape[0]
    u = np.zeros(k)  # row potentials
    v = np.zeros(k + 1)  # column potentials
    row_of = np.full(k + 1, k)  # row matched to each column; k = free
    for i in range(k):
        row_of[k] = i
        col = k
        min_reduced = np.full(k, np.inf)
        came_from = np.full(k, k)
        used = np.zeros(k + 1, dtype=bool)
        while True:
            used[col] = True
            row = row_of[col]
            reduced = cost[row] - u[row] - v[:k]
            better = ~used[:k] & (reduced < min_reduced)
            min_reduced[better] = reduced[better]
            came_from[better] = col
            candidates = np.where(used[:k], np.inf, min_reduced)
            col = int(np.argmin(candidates))
            delta = candidates[col]
            u[row_of[used]] += delta
            v[used] -= delta
            min_reduced[~used[:k]] -= delta
            if row_of[col] == k:
                break
        while col != k:  # augment along the path back to the start column
            prev = came_from[col]
            row_of[col] = row_of[prev]
            col = prev
    perm = np.empty(k, dtype=np.intp)
    perm[row_of[:k]] = np.arange(k)
    return perm


def scale_rows_to_reference(estimate: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Best-fit scaling of estimated rows against distinct reference rows.

    The factorization recovers activation rows only up to scale and order,
    so each estimated row is assigned to a distinct reference row and
    multiplied by its optimal nonnegative scale factor. The assignment is an
    exact minimum of the total least-squares residual, found by the Hungarian
    method in O(K^3) for K rows rather than by trying all K! permutations.
    When several assignments tie for the minimum, the one returned is not
    necessarily the lexicographically first, which a K! enumeration would
    return. Requires equal row counts and finite entries.
    """
    est = np.asarray(estimate, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if est.shape != ref.shape:
        raise ValueError("estimate and reference must have the same shape")
    for name, arr in (("estimate", est), ("reference", ref)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has non-finite entries")
    k = est.shape[0]
    norms = np.sum(est * est, axis=1)
    dots = est @ ref.T  # dots[i, j] = <est_i, ref_j>
    ref_norms = np.sum(ref * ref, axis=1)
    safe = np.where(norms > 0, norms, 1.0)[:, None]
    scales = np.where(norms[:, None] > 0, np.maximum(dots, 0.0) / safe, 0.0)
    cost = ref_norms[None, :] - scales * np.maximum(dots, 0.0)
    perm = _min_cost_assignment(cost)
    return est * scales[np.arange(k), perm][:, None]


def derive_trial_seeds(master_seed: int, trial_index: int) -> tuple[int, int]:
    """(scenario seed, solver init seed) for one trial, keyed on the master seed."""
    scen = int(np.random.SeedSequence((master_seed, _TRIAL_SCENARIO, trial_index)).generate_state(1)[0])
    init = int(np.random.SeedSequence((master_seed, _TRIAL_INIT, trial_index)).generate_state(1)[0])
    return scen, init


def _estimate_transitions(acts: np.ndarray, p_true: np.ndarray,
                          activity: np.ndarray) -> float:
    if acts.shape[0] != p_true.shape[0] or not activity.any():
        return float("nan")
    threshold = 0.1 * float(np.mean(p_true[activity == 1]))
    if threshold <= 0:
        return float("nan")
    scaled = scale_rows_to_reference(acts, p_true)
    return float(np.mean(transition_count(scaled, threshold)))


def run_trial(cfg: ExperimentConfig, trial_index: int,
              sweep_param: str = "none",
              sweep_value: float | None = None,
              trace_dir=None,
              trace_tag: str = "") -> list[TrialResult]:
    """Run every configured method on one freshly generated scenario.

    With trace_dir set, the gains-learning trace of each method is written
    to trace_<tag><trial>_<method>.csv in that directory.
    """
    scen_seed, init_seed = derive_trial_seeds(cfg.scenario.seed, trial_index)
    scen_cfg = replace(cfg.scenario, seed=scen_seed)
    if sweep_value is not None and sweep_param != "none":
        scen_cfg = replace(scen_cfg, **{sweep_param: sweep_value})
    truth = generate_scenario(scen_cfg)
    s_full = truth.observed
    s_window = s_full.window(0, cfg.gamma_window)

    results = []
    for method in cfg.methods:
        beta = cfg.solver.beta if method == "pcnmf" else 0.0
        solver_cfg = replace(cfg.solver, beta=beta, init_seed=init_seed)
        start = time.perf_counter()
        try:
            pair, trace = solve(s_window, solver_cfg)
            acts = infer_activations(s_full, pair.gains, solver_cfg)
            seconds = time.perf_counter() - start
        except NumericFailureError as exc:
            results.append(
                TrialResult(
                    sweep_param=sweep_param, sweep_value=sweep_value,
                    trial=trial_index, method=method, seed=scen_seed,
                    rmse=float("nan"), rmse_pooled=float("nan"),
                    fit=float("nan"), iterations=0,
                    seconds=time.perf_counter() - start,
                    transitions=float("nan"), failed=True, error=str(exc),
                )
            )
            continue
        if trace_dir is not None:
            out = Path(trace_dir)
            out.mkdir(parents=True, exist_ok=True)
            trace.to_csv(out / f"trace_{trace_tag}{trial_index}_{method}.csv")
        s_hat = pair.gains @ acts
        try:
            rmse = rmse_missing(s_hat, truth.s_clean, s_full.mask)
            pooled = rmse_missing_pooled(s_hat, truth.s_clean, s_full.mask)
        except UndefinedMetricError:
            rmse = pooled = float("nan")
        results.append(
            TrialResult(
                sweep_param=sweep_param, sweep_value=sweep_value,
                trial=trial_index, method=method, seed=scen_seed,
                rmse=rmse, rmse_pooled=pooled,
                fit=weighted_fit(s_full, FactorPair(pair.gains, acts)),
                iterations=trace.iterations, seconds=seconds,
                transitions=_estimate_transitions(acts, truth.p_true, truth.activity),
            )
        )
    return results


@dataclass(frozen=True)
class SummaryRow:
    sweep_param: str
    sweep_value: float | None
    method: str
    mean_rmse: float        # NaN when undefined for every trial
    stderr_rmse: float      # NaN when fewer than 2 defined values
    trials_ok: int
    trials_failed: int
    mean_seconds: float


def _sweep_cells(cfg: ExperimentConfig) -> list[tuple[str, float | None]]:
    if not cfg.sweep:
        return [("none", None)]
    return [(param, value) for param, values in cfg.sweep for value in values]


def _sweep_task(args) -> list[TrialResult]:
    cfg, param, value, trial_index, trace_dir, trace_tag = args
    return run_trial(cfg, trial_index, param, value, trace_dir, trace_tag)


def run_sweep(cfg: ExperimentConfig, jobs: int = 1,
              trace_dir=None) -> tuple[list[SummaryRow], list[TrialResult]]:
    """Run all sweep cells x trials; aggregate per (cell, method).

    With jobs > 1 the trials run in a process pool; the output is identical
    to a serial run because every trial is seeded independently and the
    aggregation order is fixed. trace_dir enables per-trial trace export
    (file names gain a c<cell>_ prefix when sweeping over several cells).
    """
    cells = _sweep_cells(cfg)
    tasks = [
        (cfg, param, value, trial, trace_dir,
         f"c{cell_index}_" if len(cells) > 1 else "")
        for cell_index, (param, value) in enumerate(cells)
        for trial in range(cfg.trials)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_task = list(pool.map(_sweep_task, tasks))
    else:
        per_task = [_sweep_task(t) for t in tasks]

    trials: list[TrialResult] = [res for batch in per_task for res in batch]
    method_order = {m: i for i, m in enumerate(cfg.methods)}
    cell_order = {cell: i for i, cell in enumerate(cells)}
    trials.sort(
        key=lambda r: (cell_order[(r.sweep_param, r.sweep_value)],
                       r.trial, method_order[r.method])
    )

    summary: list[SummaryRow] = []
    for param, value in cells:
        for method in cfg.methods:
            group = [
                r for r in trials
                if (r.sweep_param, r.sweep_value) == (param, value)
                and r.method == method
            ]
            ok = [r for r in group if not r.failed]
            rmses = np.array([r.rmse for r in ok if not np.isnan(r.rmse)])
            mean = float(np.mean(rmses)) if rmses.size else float("nan")
            stderr = (
                float(np.std(rmses, ddof=1) / np.sqrt(rmses.size))
                if rmses.size > 1 else float("nan")
            )
            secs = np.array([r.seconds for r in ok])
            summary.append(
                SummaryRow(
                    sweep_param=param, sweep_value=value, method=method,
                    mean_rmse=mean, stderr_rmse=stderr,
                    trials_ok=len(ok), trials_failed=len(group) - len(ok),
                    mean_seconds=float(np.mean(secs)) if secs.size else float("nan"),
                )
            )
    return summary, trials


def _cell(value) -> str:
    """One table cell: empty when undefined (None or NaN), a bool as 0/1."""
    if value is None or isinstance(value, float) and np.isnan(value):
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_table(rows, cls, path) -> None:
    """One header column and one cell per field of the dataclass cls."""
    names = [f.name for f in fields(cls)]
    write_csv(path, names, ([_cell(getattr(row, n)) for n in names] for row in rows))


def write_summary_csv(rows: list[SummaryRow], path, include_timing: bool = True) -> None:
    if not include_timing:
        rows = [replace(row, mean_seconds=None) for row in rows]
    _write_table(rows, SummaryRow, path)


def write_trials_csv(rows: list[TrialResult], path) -> None:
    _write_table(rows, TrialResult, path)


def read_trials_csv(path) -> list[dict]:
    """Parse trials.csv back into dicts with floats where applicable."""
    import csv as _csv

    out = []
    with open(path, newline="") as fh:
        for rec in _csv.DictReader(fh):
            row = dict(rec)
            for key in ("sweep_value", "rmse", "rmse_pooled", "fit", "seconds", "transitions"):
                row[key] = float(row[key]) if row[key] else float("nan")
            row["trial"] = int(row["trial"])
            row["seed"] = int(row["seed"])
            row["iterations"] = int(row["iterations"])
            row["failed"] = bool(int(row["failed"]))
            out.append(row)
    return out


def write_benchmark_outputs(outdir, summary: list[SummaryRow],
                            trials: list[TrialResult],
                            include_timing: bool = True) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_summary_csv(summary, out / "summary.csv", include_timing=include_timing)
    write_trials_csv(trials, out / "trials.csv")
