"""Experiment harness: two-phase estimation trials, sweeps, CSV emission.

A trial generates a scenario, learns the gains on a leading window of time
slots, re-estimates the activations for the whole horizon with the gains
frozen, and scores the reconstruction against the noiseless truth at the
missing positions. The plain weighted-NMF baseline is the same pipeline with
the transition penalty switched off, so both methods share one code path.

Trials are seeded from (master seed, trial index) and are therefore safe to
run in any order or in parallel; the sweep maps them in task order (cell by
cell, trial by trial) and aggregates each (cell, method) group in one pass.
"""

from __future__ import annotations

import csv
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from ._config import check, check_dict, check_field, check_fields, ranged
from .matrices import FactorPair, binary, csv_line, finite, write_csv
from .simulate import ScenarioConfig, generate_scenario
from .solver import NumericFailureError, SolverConfig, infer_activations, solve, weighted_fit

_METHODS = ("pcnmf", "wnmf")
_TRIAL_SCENARIO = 11
_TRIAL_INIT = 12
_NAN = float("nan")
_PARTS = {"scenario": ScenarioConfig, "solver": SolverConfig}  # the nested configs
# Sweep parameter -> (part, field), by the rule in ExperimentConfig's docstring.
_SWEEPABLE = {("solver." if part == "solver" else "") + f.name: (part, f)
              for part, kind in _PARTS.items() for f in fields(kind)
              if f.type in ("int", "float") and "seed" not in f.name}


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark protocol: scenario, solver, trial count, window, sweep.

    Each sweep value is one cell: it sets an int or float field of the scenario, by its bare
    name, or of the solver, as solver.<field>, but no seed.
    """

    scenario: ScenarioConfig = ScenarioConfig()
    solver: SolverConfig = SolverConfig()
    trials: int = ranged(50, 1)
    gamma_window: int = ranged(300, 1)  # and at most scenario.t_slots
    sweep: tuple[tuple[str, tuple[float, ...]], ...] = ()
    methods: tuple[str, ...] = _METHODS

    def __post_init__(self):
        check_fields(self)
        for name, kind in _PARTS.items():
            if not isinstance(value := getattr(self, name), kind):
                raise ValueError(f"ExperimentConfig field {name!r} must be a {kind.__name__}, "
                                 f"got {value!r}")
        if self.gamma_window > self.scenario.t_slots:
            raise ValueError("gamma_window must be in [1, t_slots]")
        object.__setattr__(self, "methods", _check_methods(self.methods))
        object.__setattr__(self, "sweep", _check_sweep(self))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        check_dict(cls, d)
        return cls(**{k: _PARTS[k].from_dict(v) if k in _PARTS else v for k, v in d.items()})


def _check_methods(methods) -> tuple[str, ...]:
    """methods as a tuple; ValueError unless a nonempty list of distinct _METHODS."""
    try:
        checked = tuple(methods)
    except TypeError:
        checked = ()
    if (not checked or any(m not in _METHODS for m in checked)
            or len(set(checked)) < len(checked)):
        raise ValueError(f"methods must be a nonempty list of distinct names from "
                         f"{_METHODS}, got {methods!r}")
    return checked


def _check_sweep(cfg: ExperimentConfig) -> tuple[tuple[str, tuple[float, ...]], ...]:
    """cfg.sweep as ((param, (value, ...)), ...), each value as its field stores it.

    Raises ValueError naming an entry with no values or a cell that repeats.
    """
    try:
        pairs = tuple((param, tuple(values))
                      for param, values in (() if cfg.sweep is None else cfg.sweep))
    except (TypeError, ValueError):
        raise ValueError(f"sweep must be a list of [parameter, [values...]] pairs, "
                         f"got {cfg.sweep!r}") from None
    checked = tuple((param, tuple(_swept(cfg, param, value)[1] for value in values))
                    for param, values in pairs)
    for param, values in checked:
        if not values:
            raise ValueError(f"sweep over {param!r} has no values")
    cells = [(param, value) for param, values in checked for value in values]
    for index, (param, value) in enumerate(cells):
        if (param, value) in cells[:index]:
            raise ValueError(f"sweep value {value!r} for {param!r} is repeated")
    return checked


def _swept(cfg: ExperimentConfig, param, value) -> tuple[ExperimentConfig, int | float]:
    """(cfg of the sweep cell param = value, with no sweep; the value its field stores).

    Every constructor check runs on the cell; a refusal is a ValueError naming param or value.
    """
    if not isinstance(param, str) or param not in _SWEEPABLE:
        raise ValueError(f"unsupported sweep parameter {param!r}")
    part, field = _SWEEPABLE[param]
    try:
        config = replace(getattr(cfg, part), **{field.name: value})
        return replace(cfg, sweep=(), **{part: config}), getattr(config, field.name)
    except ValueError as exc:
        raise ValueError(f"sweep value {value!r} for {param!r}: {exc}") from None


@dataclass(frozen=True)
class TrialResult:
    """One method on one trial; the metric defaults describe a failed run.

    iterations and learn_stop describe the gains-learning solve, infer_iterations and
    infer_stop the inference ("rel_tol" or "max_iters"). seconds is the time of both
    phases; simulate_s is the trial's scenario generation, which its methods share.
    """

    sweep_param: str
    sweep_value: int | float | None  # the swept field's type; None when unswept
    trial: int
    method: str
    seed: int
    rmse: float = _NAN          # per-sensor RMSE averaged over sensors; NaN if undefined
    rmse_pooled: float = _NAN   # pooled over all missing entries; NaN if undefined
    fit: float = _NAN
    iterations: int = 0
    seconds: float = _NAN
    transitions: float = _NAN   # mean per-row transition count, NaN when rank != n_pu
    failed: bool = False
    error: str = ""
    learn_stop: str = ""
    infer_iterations: int = 0
    infer_stop: str = ""
    simulate_s: float = _NAN
    learn_s: float = _NAN
    infer_s: float = _NAN
    score_s: float = _NAN


def _missing_entries(reconstructed, truth, mask):
    """(rec, tru, missing): finite 2-D arrays of one shape and their missing cells."""
    rec = finite(reconstructed, "reconstructed")
    tru = finite(truth, "truth", shape=rec.shape)
    return rec, tru, binary(mask, "mask", shape=rec.shape) == 0


def rmse_missing(reconstructed: np.ndarray, truth: np.ndarray,
                 mask: np.ndarray) -> float:
    """Per-sensor RMS error over missing entries, averaged across sensors.

    Only sensors with at least one missing entry contribute; NaN when nothing
    is missing anywhere.
    """
    rec, tru, missing = _missing_entries(reconstructed, truth, mask)
    per_sensor = []
    for r in range(rec.shape[0]):
        sel = missing[r]
        if sel.any():
            err = rec[r, sel] - tru[r, sel]
            per_sensor.append(np.sqrt(np.mean(err * err)))
    return float(np.mean(per_sensor)) if per_sensor else _NAN


def rmse_missing_pooled(reconstructed: np.ndarray, truth: np.ndarray,
                        mask: np.ndarray) -> float:
    """RMS error pooled over every missing entry, all sensors together; NaN if none."""
    rec, tru, missing = _missing_entries(reconstructed, truth, mask)
    err = rec[missing] - tru[missing]
    return float(np.sqrt(np.mean(err * err))) if err.size else _NAN


def transition_count(activations: np.ndarray, threshold: float) -> np.ndarray:
    """Per-row count of consecutive differences larger than threshold."""
    threshold = check("threshold", threshold, "float", 0, strict=True)
    acts = finite(activations, "activations")
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
    return. Requires 2-D inputs of one shape with finite entries.
    """
    est = finite(estimate, "estimate")
    ref = finite(reference, "reference", shape=est.shape)
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
    master_seed = check_field(ScenarioConfig, "seed", master_seed, "master_seed")
    trial_index = check("trial_index", trial_index, "int", 0)
    return tuple(int(np.random.SeedSequence((master_seed, key, trial_index)).generate_state(1)[0])
                 for key in (_TRIAL_SCENARIO, _TRIAL_INIT))


def _estimate_transitions(acts: np.ndarray, p_true: np.ndarray,
                          activity: np.ndarray) -> float:
    if acts.shape[0] != p_true.shape[0] or not activity.any():
        return _NAN
    threshold = 0.1 * float(np.mean(p_true[activity == 1]))
    if threshold <= 0:
        return _NAN
    scaled = scale_rows_to_reference(acts, p_true)
    return float(np.mean(transition_count(scaled, threshold)))


def _run_method(truth, s_window, solver_cfg: SolverConfig, trace_path) -> dict:
    """The TrialResult fields of one method on one scenario, learning on s_window: its
    scores and phases, or, if it fails, the error and the seconds it ran."""
    s_full = truth.observed
    start = time.perf_counter()
    try:
        pair, trace = solve(s_window, solver_cfg)
        learned = time.perf_counter()
        pair_full, infer_trace = infer_activations(s_full, pair.gains, solver_cfg)
    except NumericFailureError as exc:
        return {"error": str(exc), "seconds": time.perf_counter() - start}
    inferred = time.perf_counter()
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace.to_csv(trace_path)
    scoring = time.perf_counter()
    # A reconstruction that overflows, or whose squared error does, is a
    # failed row; a NaN score means only that no cell is missing.
    with np.errstate(over="ignore", invalid="ignore"):
        s_hat = pair_full.gains @ pair_full.activations
        if not np.isfinite(s_hat).all():
            return {"error": "reconstruction gains @ activations is not finite",
                    "seconds": inferred - start}
        rmse = rmse_missing(s_hat, truth.s_clean, s_full.mask)
        pooled = rmse_missing_pooled(s_hat, truth.s_clean, s_full.mask)
        fit = weighted_fit(s_full, pair_full)
        if np.isinf([rmse, pooled]).any() or not np.isfinite(fit):
            return {"error": "score of gains @ activations is not finite",
                    "seconds": inferred - start}
    transitions = _estimate_transitions(pair_full.activations, truth.p_true, truth.activity)
    return dict(rmse=rmse, rmse_pooled=pooled, fit=fit, iterations=trace.iterations,
                seconds=inferred - start, transitions=transitions,
                learn_stop=trace.stop_reason, infer_iterations=infer_trace.iterations,
                infer_stop=infer_trace.stop_reason, learn_s=learned - start,
                infer_s=inferred - learned, score_s=time.perf_counter() - scoring)


def run_trial(cfg: ExperimentConfig, trial_index: int,
              sweep_param: str = "none",
              sweep_value: int | float | None = None,
              trace_dir=None,
              trace_tag: str = "") -> list[TrialResult]:
    """Run every configured method on one freshly generated scenario.

    Any (sweep_param, sweep_value) but ("none", None) runs the cell it makes of cfg by
    ExperimentConfig's sweep rule, or raises its ValueError. A scenario of this trial's
    seed that overflows float64 is a failed row for every method, with the generator's
    message. With trace_dir set, each method's gains-learning trace is written there,
    to trace_<tag><trial>_<method>.csv.
    """
    if sweep_param != "none" or sweep_value is not None:
        cfg, sweep_value = _swept(cfg, sweep_param, sweep_value)
    scen_seed, init_seed = derive_trial_seeds(cfg.scenario.seed, trial_index)
    scenario = replace(cfg.scenario, seed=scen_seed)
    start = time.perf_counter()
    try:
        truth = generate_scenario(scenario)
    except ValueError as exc:  # the cell is valid, but this seed's draw overflows
        truth, overflow = None, {"error": str(exc)}
    simulate_s = time.perf_counter() - start
    s_window = None if truth is None else truth.observed.window(0, cfg.gamma_window)

    results = []
    for method in cfg.methods:
        solver_cfg = replace(cfg.solver, beta=cfg.solver.beta if method == "pcnmf" else 0.0,
                             init_seed=init_seed)
        trace_path = (None if trace_dir is None
                      else Path(trace_dir) / f"trace_{trace_tag}{trial_index}_{method}.csv")
        row = overflow if truth is None else _run_method(truth, s_window, solver_cfg, trace_path)
        results.append(TrialResult(sweep_param, sweep_value, trial_index, method, scen_seed,
                                   simulate_s=simulate_s, failed="error" in row, **row))
    return results


@dataclass(frozen=True)
class SummaryRow:
    sweep_param: str
    sweep_value: int | float | None  # the swept field's type; None when unswept
    method: str
    mean_rmse: float        # NaN when undefined for every trial
    stderr_rmse: float      # NaN when fewer than 2 defined values
    trials_ok: int
    trials_failed: int
    mean_seconds: float


def run_sweep(cfg: ExperimentConfig, jobs: int = 1,
              trace_dir=None) -> tuple[list[SummaryRow], list[TrialResult]]:
    """Run all sweep cells x trials; aggregate per (cell, method).

    Tasks run cell by cell, trial by trial, through one map: the builtin map
    when min(jobs, tasks) == 1, a pool of that many processes otherwise.
    Both return results in task order and every trial is seeded
    independently, so the output is the same for any jobs >= 1. trace_dir
    enables per-trial trace export (file names gain a c<cell>_ prefix when
    sweeping over several cells).
    """
    jobs = check("jobs", jobs, "int", 1)
    cells = [(param, value) for param, values in cfg.sweep for value in values]
    cells = cells or [("none", None)]
    tasks = [
        (cfg, trial, param, value, trace_dir, f"c{cell_index}_" if len(cells) > 1 else "")
        for cell_index, (param, value) in enumerate(cells)
        for trial in range(cfg.trials)
    ]
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_task = list(pool.map(run_trial, *zip(*tasks)))
    else:
        per_task = list(map(run_trial, *zip(*tasks)))

    groups: dict[tuple[int, str], list[TrialResult]] = {
        (cell_index, method): []
        for cell_index in range(len(cells)) for method in cfg.methods
    }
    for task_index, batch in enumerate(per_task):
        for r in batch:
            groups[task_index // cfg.trials, r.method].append(r)

    summary: list[SummaryRow] = []
    for (cell_index, method), group in groups.items():
        ok = [r for r in group if not r.failed]
        rmses = np.array([r.rmse for r in ok if not np.isnan(r.rmse)])
        mean = float(np.mean(rmses)) if rmses.size else _NAN
        stderr = float(np.std(rmses, ddof=1) / np.sqrt(rmses.size)) if rmses.size > 1 else _NAN
        secs = np.array([r.seconds for r in ok])
        summary.append(SummaryRow(
            *cells[cell_index], method, mean_rmse=mean, stderr_rmse=stderr,
            trials_ok=len(ok), trials_failed=len(group) - len(ok),
            mean_seconds=float(np.mean(secs)) if secs.size else _NAN,
        ))
    return summary, [r for batch in per_task for r in batch]


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
    """One header column and one cell per field of the dataclass cls.

    Every line is built before the file is opened, so a cell that cannot be
    written leaves no file behind.
    """
    names = [f.name for f in fields(cls)]
    write_csv(path, names, [csv_line([_cell(getattr(row, n)) for n in names]) for row in rows])


def _parse_float(cell: str) -> float:
    return float(cell) if cell else _NAN


def _parse_bool(cell: str) -> bool:
    # _write_table writes a bool as 0 or 1; any other cell is not one.
    if cell not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {cell!r}")
    return cell == "1"


def _parse_int(cell: str) -> int:
    # _write_table writes an int as str(value); int alone would also take '6_0' or ' 6'.
    value = int(cell)
    if str(value) != cell:
        raise ValueError(f"expected an int as str writes it, got {cell!r}")
    return value


# Cell parsers by field annotation; every other annotation names a float.
_PARSERS = {"str": str, "int": _parse_int, "bool": _parse_bool}


def _parse_sweep_value(param: str, cell: str) -> int | float:
    """A sweep_value cell as the type of the field param sweeps; NaN for an unswept row."""
    if param == "none" and not cell:
        return _NAN
    if param not in _SWEEPABLE:
        raise ValueError(f"unsupported sweep parameter {param!r}")
    return _PARSERS.get(_SWEEPABLE[param][1].type, float)(cell)


def read_trials_csv(path) -> list[dict]:
    """Parse trials.csv back into dicts typed by the fields of TrialResult.

    sweep_value reads as the type of the field its sweep_param sweeps, and empty float
    cells read as NaN. A header other than the field names, a row of the wrong length and
    a cell that does not parse raise ValueError naming the line (and the column).
    """
    columns = [(f.name, _PARSERS.get(f.type, _parse_float)) for f in fields(TrialResult)]
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != [name for name, _ in columns]:
            raise ValueError(f"unexpected trials.csv header {header!r}")
        for rec in filter(None, reader):
            line = reader.line_num
            if len(rec) != len(columns):
                raise ValueError(f"line {line} has {len(rec)} fields, expected {len(columns)}")
            row = {}
            for (name, parse), cell in zip(columns, rec):
                try:
                    row[name] = (_parse_sweep_value(row["sweep_param"], cell)
                                 if name == "sweep_value" else parse(cell))
                except ValueError as exc:
                    raise ValueError(f"line {line}, column {name!r}: {exc}") from exc
            rows.append(row)
    return rows


def write_benchmark_outputs(outdir, summary: list[SummaryRow],
                            trials: list[TrialResult],
                            include_timing: bool = True) -> None:
    """Write summary.csv and trials.csv into outdir, creating it.

    include_timing=False blanks every timing cell (mean_seconds, seconds and the four
    phase times), so that two runs of one configuration write the same bytes.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    if not include_timing:
        summary = [replace(row, mean_seconds=None) for row in summary]
        trials = [replace(r, seconds=None, simulate_s=None, learn_s=None, infer_s=None,
                          score_s=None) for r in trials]
    _write_table(summary, SummaryRow, out / "summary.csv")
    _write_table(trials, TrialResult, out / "trials.csv")
