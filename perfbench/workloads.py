"""Workloads: the CLI commands one call runs, and the checks on their outputs.

Import only after prepare.pin_blas(): this module imports numpy.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

PAPER_SCENARIO = {"n_pu": 3, "n_su": 20, "t_slots": 600, "noise_var": 1e-5, "p_obs": 0.7}
PAPER_SOLVER = {"beta": 5e-3, "rank": 5, "max_iters": 1000, "rel_tol": 1e-8}


@dataclass
class Call:
    """One timed call of the CLI: one op, or one op per sweep cell."""

    wall: float
    ops: int
    child_cpu: float = 0.0
    failed_ops: int = 0
    method_runs: int = 0
    failed_runs: int = 0
    problems: list[str] = field(default_factory=list)
    rmse: dict[str, list[float]] = field(default_factory=dict)


def run_cli(main, argv: list[str]) -> str:
    """Run one pcnmf command in process; return "" or what went wrong."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except Exception as exc:  # a crashing op is a failed op, not a benchmark crash
            return f"{argv[0]} raised {type(exc).__name__}: {exc}"
    return f"{argv[0]} exited with {code}" if code else ""


def child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def per_sensor_rmse(pred, truth, mask) -> float:
    """RMSE at missing cells per sensor, averaged over sensors with a missing cell."""
    missing = mask == 0
    count = missing.sum(axis=1)
    sq = np.where(missing, (pred - truth) ** 2, 0.0).sum(axis=1)
    rows = count > 0
    return float(np.mean(np.sqrt(sq[rows] / count[rows])))


class Workload:
    name = ""
    jobs = 1
    panel = 1           # leading calls with fixed seeds, the RMSE panel
    ops_per_call = 1
    methods = ("pcnmf", "wnmf")

    def __init__(self, main, work: Path):
        self.main = main
        self.work = work
        self.tracer = None

    def cli(self, argv: list[str]) -> str:
        if self.tracer is None:
            return run_cli(self.main, argv)
        with self.tracer.span("cli:" + argv[0]):
            return run_cli(self.main, argv)

    def timed(self, argvs: list[list[str]]) -> tuple[float, float, str]:
        """Run commands back to back as one timed call: (wall, child CPU, error)."""
        root = self.tracer.open(spans.OP) if self.tracer is not None else None
        cpu0 = child_cpu()
        t0 = time.perf_counter()
        error = ""
        for argv in argvs:
            error = self.cli(argv)
            if error:
                break
        wall = time.perf_counter() - t0
        cpu = child_cpu() - cpu0
        if root is not None:
            self.tracer.close(root)
        return wall, cpu, error

    def probe_argvs(self) -> list[list[str]]:
        raise NotImplementedError

    def call(self, seed: int, jobs: int, on_panel: bool) -> Call:
        """Run one timed call and check its outputs; panel calls also give RMSEs."""
        raise NotImplementedError

    def reference_predictors(self, seeds: list[int]) -> dict[str, float]:
        return {}


class MonteCarlo(Workload):
    """``pcnmf benchmark --trials 1``: one op per (sweep cell, trial)."""

    def __init__(self, main, work, name, experiment, jobs, panel):
        super().__init__(main, work)
        self.name, self.jobs, self.panel = name, jobs, panel
        self.experiment = {**experiment, "trials": 1, "methods": list(self.methods)}
        self.cells = [(p, v) for p, values in experiment.get("sweep", []) for v in values] \
            or [("none", None)]
        self.ops_per_call = len(self.cells)
        self.config = work / "experiment.json"
        self.config.write_text(json.dumps(self.experiment, indent=2) + "\n")
        self.out = work / "bench"

    def argv(self, seed: int, jobs: int) -> list[str]:
        return ["benchmark", "--config", str(self.config), "--seed", str(seed),
                "--trials", "1", "--jobs", str(jobs), "--out", str(self.out)]

    def probe_argvs(self):
        return [self.argv(0, self.jobs)]

    def call(self, seed, jobs, on_panel):
        wall, cpu, error = self.timed([self.argv(seed, jobs)])
        res = Call(wall=wall, ops=self.ops_per_call, child_cpu=cpu,
                   method_runs=self.ops_per_call * len(self.methods))
        if error:
            res.problems.append(error)
            res.failed_ops, res.failed_runs = res.ops, res.method_runs
            return res
        try:
            self.check(res, on_panel)
        except (OSError, KeyError, ValueError) as exc:
            res.problems.append(f"unreadable benchmark outputs: {exc!r}")
        return res

    def check(self, res: Call, on_panel: bool) -> None:
        with open(self.out / "summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        with open(self.out / "trials.csv", newline="") as fh:
            trials = list(csv.DictReader(fh))
        expected = [(p, "" if v is None else repr(float(v)), m)
                    for p, v in self.cells for m in self.methods]
        got = [(r["sweep_param"], r["sweep_value"], r["method"]) for r in summary]
        if got != expected:
            res.problems.append(f"summary.csv rows {got} != {expected}")
        if [(r["sweep_param"], r["sweep_value"], r["method"]) for r in trials] != expected:
            res.problems.append("trials.csv does not hold one row per (cell, method)")
        failed_cells = set()
        for r in trials:
            if r["failed"] == "1":
                res.failed_runs += 1
                failed_cells.add(r["sweep_value"])
                continue
            rmse = float(r["rmse"]) if r["rmse"] else math.nan
            if r["method"] == "pcnmf" and not math.isfinite(rmse):
                res.problems.append(f"pcnmf RMSE {r['rmse']!r} is not finite")
            if on_panel:
                res.rmse.setdefault(r["method"], []).append(rmse)
        res.failed_ops = len(failed_cells)

    def reference_predictors(self, seeds):
        """Median RMSE of the all-zero and observed-row-mean predictors on the panel."""
        from pcnmf.bench import derive_trial_seeds
        from pcnmf.simulate import ScenarioConfig, generate_scenario

        zero, row_mean = [], []
        for seed in seeds:
            scen_seed, _ = derive_trial_seeds(seed, 0)
            for param, value in self.cells:
                fields = {**self.experiment["scenario"], "seed": scen_seed}
                if value is not None:
                    fields[param] = value
                truth = generate_scenario(ScenarioConfig.from_dict(fields))
                s = truth.observed
                seen = s.mask.sum(axis=1)
                means = np.where(seen > 0, s.values.sum(axis=1) / np.maximum(seen, 1), 0.0)
                pred = np.broadcast_to(means[:, None], s.values.shape)
                zero.append(per_sensor_rmse(np.zeros(s.values.shape), truth.s_clean, s.mask))
                row_mean.append(per_sensor_rmse(pred, truth.s_clean, s.mask))
        return {"zero": statistics.median(zero), "row_mean": statistics.median(row_mean)}


class CliPipeline(Workload):
    """``pcnmf simulate`` then ``pcnmf solve`` on the observed.csv it wrote.

    On panel calls a WNMF solve (beta = 0) of the same file runs after the
    timed op, untimed, to give the WNMF RMSE.
    """

    name = "cli_large"
    panel = 2
    methods = ("pcnmf",)
    scenario = {"n_su": 100, "t_slots": 3000}
    solver = {"rank": 5, "max_iters": 20, "rel_tol": 0.0}

    def __init__(self, main, work):
        super().__init__(main, work)
        self.scen_json = work / "scenario.json"
        self.solver_json = {m: work / f"solver_{m}.json" for m in ("pcnmf", "wnmf")}
        self.scen_json.write_text(json.dumps(self.scenario) + "\n")
        self.solver_json["pcnmf"].write_text(json.dumps(self.solver) + "\n")
        self.solver_json["wnmf"].write_text(json.dumps({**self.solver, "beta": 0.0}) + "\n")
        self.scen_dir = work / "scenario"
        self.fit_dir = {m: work / f"fit_{m}" for m in ("pcnmf", "wnmf")}

    def simulate_argv(self, seed):
        return ["simulate", "--config", str(self.scen_json), "--seed", str(seed),
                "--out", str(self.scen_dir)]

    def solve_argv(self, seed, method):
        return ["solve", str(self.scen_dir / "observed.csv"), "--config",
                str(self.solver_json[method]), "--seed", str(seed),
                "--out", str(self.fit_dir[method])]

    def probe_argvs(self):
        return [self.simulate_argv(0), self.solve_argv(0, "pcnmf")]

    def check_fit(self, method) -> tuple[list[str], object]:
        """Check one solve's output directory; return (problems, reconstruction)."""
        out = self.fit_dir[method]
        n, t = self.scenario["n_su"], self.scenario["t_slots"]
        k, iters = self.solver["rank"], self.solver["max_iters"]
        problems = []
        try:
            gains = np.loadtxt(out / "gains.csv", delimiter=",", ndmin=2)
            acts = np.loadtxt(out / "activations.csv", delimiter=",", ndmin=2)
            with open(out / "trace.csv") as fh:
                rows = sum(1 for _ in fh) - 1
            with open(out / "solve.json") as fh:
                ran = json.load(fh).get("iterations_run")
        except (OSError, ValueError) as exc:
            return [f"{method} outputs unreadable: {exc!r}"], None
        if gains.shape != (n, k) or (gains < 0).any() \
                or not np.allclose(np.linalg.norm(gains, axis=0), 1.0, rtol=0, atol=1e-9):
            problems.append(f"{method} gains.csv is not {n}x{k}, nonnegative, unit-norm")
        if acts.shape != (k, t) or not np.isfinite(acts).all() or (acts < 0).any():
            problems.append(f"{method} activations.csv is not {k}x{t}, finite, nonnegative")
        if rows != iters:
            problems.append(f"{method} trace.csv has {rows} rows, expected {iters}")
        if ran != iters:
            problems.append(f"{method} solve.json iterations_run {ran!r} != {iters}")
        return problems, (gains @ acts if not problems else None)

    def truth(self):
        """Noiseless truth and mask, read back from the scenario directory."""
        n, t = self.scenario["n_su"], self.scenario["t_slots"]
        truth = np.loadtxt(self.scen_dir / "truth_s.csv", delimiter=",", ndmin=2)
        cells = np.loadtxt(self.scen_dir / "observed.csv", delimiter=",", skiprows=1, ndmin=2)
        mask = np.full((n, t), -1.0)
        mask[cells[:, 0].astype(int), cells[:, 1].astype(int)] = cells[:, 3]
        if truth.shape != (n, t) or len(cells) != n * t or (mask < 0).any():
            raise ValueError("scenario files do not hold a complete grid")
        return truth, mask

    def call(self, seed, jobs, on_panel):
        wall, _, error = self.timed([self.simulate_argv(seed), self.solve_argv(seed, "pcnmf")])
        res = Call(wall=wall, ops=1, method_runs=1)
        if error:
            res.problems.append(error)
            res.failed_ops = res.failed_runs = 1
            return res
        problems, recon = self.check_fit("pcnmf")
        res.problems += problems
        if not on_panel:
            return res
        try:
            truth, mask = self.truth()
        except (OSError, ValueError) as exc:
            res.problems.append(str(exc))
            return res
        res.rmse["pcnmf"] = [per_sensor_rmse(recon, truth, mask)] if recon is not None else []
        res.method_runs += 1
        error = run_cli(self.main, self.solve_argv(seed, "wnmf"))
        if error:
            res.problems.append(error)
            res.failed_runs += 1
            return res
        problems, recon = self.check_fit("wnmf")
        res.problems += problems
        res.rmse["wnmf"] = [per_sensor_rmse(recon, truth, mask)] if recon is not None else []
        return res


def make_workload(name: str, main, work: Path) -> Workload:
    if name == "paper_mc":
        return MonteCarlo(main, work, name, {"scenario": PAPER_SCENARIO, "solver": PAPER_SOLVER,
                                             "gamma_window": 300}, jobs=1, panel=10)
    if name == "many_tx_pool":
        return MonteCarlo(main, work, name, {"scenario": {**PAPER_SCENARIO, "n_pu": 9},
                                             "solver": {**PAPER_SOLVER, "rank": 9},
                                             "gamma_window": 300,
                                             "sweep": [["p_obs", [0.5, 0.9]]]},
                          jobs=2, panel=4)
    return CliPipeline(main, work)


WORKLOADS = ("paper_mc", "many_tx_pool", "cli_large")


def op_seed(seed: int, index: int, panel: int) -> int:
    """Seed of call `index`: fixed on the panel, else drawn from (seed, index)."""
    if index < panel:
        return index
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])
