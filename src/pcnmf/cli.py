"""Command-line entry points: simulate, solve, benchmark."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .bench import ExperimentConfig, run_sweep, write_benchmark_outputs
from .matrices import load_masked_csv, save_dense_csv, write_json
from .simulate import ScenarioConfig, generate_scenario, save_scenario
from .solver import NumericFailureError, SolverConfig, solve


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return config


def _cmd_simulate(args) -> int:
    overrides = _load_config(args.config)
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = ScenarioConfig.from_dict(overrides)
    truth = generate_scenario(cfg)
    save_scenario(truth, cfg, args.out)
    print(f"scenario written to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    overrides = _load_config(args.config)
    if args.seed is not None:
        overrides["init_seed"] = args.seed
    cfg = SolverConfig.from_dict(overrides)
    observed = load_masked_csv(args.observed)
    pair, trace = solve(observed, cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dense_csv(pair.gains, out / "gains.csv")
    save_dense_csv(pair.activations, out / "activations.csv")
    trace.to_csv(out / "trace.csv")
    sidecar = {
        "beta": cfg.beta,
        "epsilon": cfg.epsilon,
        "rank": cfg.rank,
        "iterations_run": trace.iterations,
        "final_objective": trace.records[-1].objective,
    }
    write_json(out / "solve.json", sidecar)
    print(
        f"factorization written to {out} "
        f"({trace.iterations} iterations, objective {sidecar['final_objective']!r})"
    )
    return 0


def _cmd_benchmark(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_config(args.config))
    if args.seed is not None:
        cfg = replace(cfg, scenario=replace(cfg.scenario, seed=args.seed))
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    if args.methods is not None:
        cfg = replace(cfg, methods=tuple(args.methods.split(",")))
    trace_dir = args.out if args.save_traces else None
    summary, trials = run_sweep(cfg, jobs=args.jobs, trace_dir=trace_dir)
    write_benchmark_outputs(
        args.out, summary, trials, include_timing=not args.no_timing
    )
    failed = sum(r.failed for r in trials)
    print(f"benchmark written to {args.out} ({len(trials)} trial runs, {failed} failed)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcnmf",
        description="Masked piecewise-constant NMF: simulator, solver, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate and export a scenario directory")
    p_sim.add_argument("--config", help="JSON file with scenario parameter overrides")
    p_sim.add_argument("--seed", type=int, help="scenario seed override")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_solve = sub.add_parser("solve", help="factorize an observed.csv measurement file")
    p_solve.add_argument("observed", help="masked-matrix CSV (r,t,value,observed)")
    p_solve.add_argument("--config", help="JSON file with solver parameter overrides")
    p_solve.add_argument("--seed", type=int, help="initialization seed override")
    p_solve.add_argument("--out", required=True, help="output directory")
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("benchmark", help="run Monte Carlo sweeps and emit CSVs")
    p_bench.add_argument("--config", help="JSON file with experiment configuration")
    p_bench.add_argument("--seed", type=int, help="master seed override")
    p_bench.add_argument("--trials", type=int, help="Monte Carlo trials per sweep cell")
    p_bench.add_argument("--methods", help="comma-separated subset of pcnmf,wnmf")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--jobs", type=int, default=1, help="parallel trial workers (>= 1)")
    p_bench.add_argument(
        "--no-timing", action="store_true",
        help="leave the mean_seconds and seconds columns empty, so that "
             "summary.csv and trials.csv are byte-reproducible",
    )
    p_bench.add_argument(
        "--save-traces", action="store_true",
        help="also write per-trial solver traces as trace_<trial>_<method>.csv",
    )
    p_bench.set_defaults(func=_cmd_benchmark)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError, NumericFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
