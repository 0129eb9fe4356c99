"""Command-line entry points: simulate, solve, benchmark."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager, suppress
from dataclasses import replace
from pathlib import Path

from ._config import check
from .bench import ExperimentConfig, run_sweep, write_benchmark_outputs
from .matrices import load_masked_csv, save_dense_csv, write_json
from .simulate import ScenarioConfig, generate_scenario, save_scenario
from .solver import NumericFailureError, SolverConfig, solve


def _unique_keys(pairs) -> dict:
    """json's object_pairs_hook: the object as a dict, refusing a key it repeats."""
    config = {}
    for key, value in pairs:
        if key in config:
            raise ValueError(f"duplicate key {key!r}")
        config[key] = value
    return config


def _read_config(cls, path, **flags):
    """cls.from_dict of the JSON object in the file at path ({} for None), then each flag
    that is not None laid over it by replace; a file that does not parse names itself.
    """
    config = {}
    if path is not None:
        with open(path) as fh:
            try:
                config = json.load(fh, object_pairs_hook=_unique_keys)
            except ValueError as exc:  # not text, not JSON, or a repeated key
                raise ValueError(f"{path}: {exc}") from None
    return replace(cls.from_dict(config), **{k: v for k, v in flags.items() if v is not None})


@contextmanager
def _out_dir(path):
    """--out as a Path, made with its missing parents, so that an unusable --out fails
    before the command's work; if making it or that work fails, the directories made here
    that are still empty are removed again, and a directory that was there before is kept.
    """
    out = Path(path)
    made = [d for d in (out, *out.parents) if not d.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)  # may fail after making some parents
        yield out
    except BaseException:
        for d in made:  # deepest first; rmdir refuses a directory that is not empty
            with suppress(OSError):
                d.rmdir()
        raise


def _cmd_simulate(args) -> int:
    cfg = _read_config(ScenarioConfig, args.config, seed=args.seed)
    with _out_dir(args.out) as out:
        save_scenario(generate_scenario(cfg), cfg, out)
    print(f"scenario written to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    cfg = _read_config(SolverConfig, args.config, init_seed=args.seed)
    observed = load_masked_csv(args.observed)
    with _out_dir(args.out) as out:
        pair, trace = solve(observed, cfg)
        save_dense_csv(pair.gains, out / "gains.csv")
        save_dense_csv(pair.activations, out / "activations.csv")
        trace.to_csv(out / "trace.csv")
        sidecar = {
            **cfg.to_dict(),
            "iterations_run": trace.iterations,
            "final_objective": trace.records[-1].objective,
            "stop_reason": trace.stop_reason,
        }
        write_json(out / "solve.json", sidecar)
    print(
        f"factorization written to {out} "
        f"({trace.iterations} iterations, objective {sidecar['final_objective']!r})"
    )
    return 0


def _cmd_benchmark(args) -> int:
    cfg = _read_config(ExperimentConfig, args.config, trials=args.trials)
    if args.seed is not None:  # the master seed is the scenario's
        cfg = replace(cfg, scenario=replace(cfg.scenario, seed=args.seed))
    jobs = check("jobs", args.jobs, "int", 1)
    with _out_dir(args.out) as out:
        summary, trials = run_sweep(cfg, jobs=jobs, trace_dir=out if args.save_traces else None)
        write_benchmark_outputs(out, summary, trials, include_timing=not args.no_timing)
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
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--jobs", type=int, default=1, help="parallel trial workers (>= 1)")
    p_bench.add_argument(
        "--no-timing", action="store_true",
        help="leave the timing columns (mean_seconds, seconds, simulate_s, learn_s, "
             "infer_s and score_s) empty, so that summary.csv and trials.csv are "
             "byte-reproducible",
    )
    p_bench.add_argument(
        "--save-traces", action="store_true",
        help="also write each trial's gains-learning trace as trace_<trial>_<method>.csv "
             "and its inference trace as trace_<trial>_<method>_infer.csv, each name with "
             "a c<cell>_ prefix after trace_ when the sweep has more than one cell",
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
