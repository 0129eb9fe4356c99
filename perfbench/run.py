"""pcnmf benchmark: closed-loop workloads driven through ``pcnmf.cli.main``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper_mc --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

    paper_mc      ``pcnmf benchmark --jobs 1`` on the README's paper config
    many_tx_pool  ``pcnmf benchmark --jobs 2``, n_pu = rank = 9, p_obs sweep
    cli_large     ``pcnmf simulate`` then ``pcnmf solve`` on a 100 x 3000 grid

One client runs ops back to back in this process, each op seeded from
``--seed`` and its index, until ``--seconds`` have passed. The first PANEL
calls of every workload use fixed seeds instead; the RMSE metrics come only
from them, so they repeat exactly from run to run.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every op twice,
untraced and then traced, and prints the per-layer metrics. The last stdout
line is one JSON object; the result, a manifest and (traced) the spans are
also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import prepare

try:
    prepare.pin_blas()  # before anything below imports numpy
except prepare.SetupError as exc:
    sys.exit(f"error: {exc}")

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Call, Workload, make_workload, op_seed  # noqa: E402

SETUP_PROBES = 9
OUT = prepare.ROOT / "perfbench" / "out"


def probe_setup(argv_file: Path) -> float:
    """Seconds from launching a fresh interpreter to the first op being ready."""
    probe = Path(__file__).resolve().parent / "probe.py"
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, str(probe), str(argv_file)], cwd=prepare.ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def manifest(args, workload: Workload) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    cpu_model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    commit = None
    if (prepare.ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(prepare.ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
    sources = hashlib.sha256()
    for path in sorted((prepare.SRC / "pcnmf").rglob("*.py")):
        sources.update(path.relative_to(prepare.SRC).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": workload.jobs,
        "traced_jobs": 1 if args.trace else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {v: os.environ.get(v) for v in
                            (*prepare.BLAS_THREAD_VARS, "MKL_NUM_THREADS")},
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
    }


def median_or_nan(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def run_untraced(args, workload: Workload) -> tuple[dict, dict, list[Call]]:
    argv_file = workload.work / "probe_argv.json"
    argv_file.write_text(json.dumps(workload.probe_argvs()))
    setup: list[float] = []
    calls: list[Call] = []
    t_start = time.perf_counter()
    while len(calls) < workload.panel or time.perf_counter() - t_start < args.seconds:
        # The machine's speed swings over seconds: spread the set-up probes
        # over the run, between calls, so their median spans the swings too.
        share = (time.perf_counter() - t_start) / args.seconds
        while len(setup) < min(SETUP_PROBES, 1 + int((SETUP_PROBES - 1) * share)):
            setup.append(probe_setup(argv_file))
        index = len(calls)
        calls.append(workload.call(op_seed(args.seed, index, workload.panel),
                                   workload.jobs, index < workload.panel))
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(argv_file))
    panel = calls[:workload.panel]
    rmse = {m: [v for c in panel for v in c.rmse.get(m, [])] for m in ("pcnmf", "wnmf")}
    runs = sum(c.method_runs for c in calls)
    failed_runs = sum(c.failed_runs for c in calls)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.jobs > 1:
        rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    wall = sum(c.wall for c in calls)
    metrics = {
        "ops_per_s": (sum(c.ops for c in calls) / wall, "op/s"),
        # Set-up samples fall into a fast and a slow mode as the machine's
        # speed swings; a median flips between the modes, so average the
        # samples, dropping the fastest and the slowest.
        "setup_s": (statistics.mean(sorted(setup)[1:-1]), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "rmse_pcnmf_p50": (median_or_nan(rmse["pcnmf"]), "power"),
        "rmse_wnmf_p50": (median_or_nan(rmse["wnmf"]), "power"),
        "succeeded_frac": ((runs - failed_runs) / runs, "ratio"),
    }
    extra = {
        "failed_frac": failed_runs / runs,
        "method_runs": runs,
        "setup_samples_s": setup,
        "call_walls_s": [c.wall for c in calls],
        "pool_efficiency": (sum(c.child_cpu for c in calls) / (workload.jobs * wall)
                            if workload.jobs > 1 else None),
        "panel_rmse": rmse,
        "reference_rmse_p50": workload.reference_predictors(list(range(workload.panel))),
    }
    return metrics, extra, calls


def run_traced(args, workload: Workload, run_dir: Path) -> tuple[dict, dict, list[Call]]:
    calls: list[Call] = []
    pool_efficiency = 0.0
    if workload.jobs > 1:
        pool = workload.call(op_seed(args.seed, 0, workload.panel), workload.jobs, False)
        pool_efficiency = pool.child_cpu / (workload.jobs * pool.wall)
        calls.append(pool)
    tracer = spans.Tracer()
    untraced_wall = traced_wall = 0.0
    index = 0
    t_start = time.perf_counter()
    while index == 0 or time.perf_counter() - t_start < args.seconds:
        seed = op_seed(args.seed, index, workload.panel)
        plain = workload.call(seed, 1, False)
        tracer.op_id = index
        with spans.installed(tracer):
            workload.tracer = tracer
            try:
                traced = workload.call(seed, 1, False)
            finally:
                workload.tracer = None
        calls += [plain, traced]
        untraced_wall += plain.wall
        traced_wall += traced.wall
        index += 1
    metrics = spans.layer_metrics(tracer)
    metrics["bench.run_sweep.pool_efficiency"] = (pool_efficiency, "ratio")
    metrics["trace.ops_per_s"] = (index * workload.ops_per_call / traced_wall, "op/s")
    metrics["trace.overhead"] = (untraced_wall / traced_wall, "ratio")
    tracer.write_csv_gz(run_dir / "spans.csv.gz")
    extra = {"spans": len(tracer.start), "pairs": index}
    return metrics, extra, calls


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = prepare.import_program()
    except prepare.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "work"
    work.mkdir(parents=True)
    workload = make_workload(args.workload, cli.main, work)
    try:
        if args.trace:
            metrics, extra, calls = run_traced(args, workload, run_dir)
        else:
            metrics, extra, calls = run_untraced(args, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((prepare.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if {k: unit for k, (_, unit) in metrics.items()} != declared:
        print("error: metrics do not match those BENCHMARK.json declares", file=sys.stderr)
        return 3

    problems = [p for c in calls for p in c.problems]
    correct = not problems and all(math.isfinite(v) for v, _ in metrics.values())
    result = {
        "correct": correct,
        "attempted": sum(c.ops for c in calls),
        "failed": sum(c.failed_ops for c in calls),
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest(args, workload), indent=2) + "\n")
    (run_dir / "result.json").write_text(
        json.dumps({**result, "problems": problems, **extra}, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>13} {name:<42} {value:.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:>13} {'failed_frac':<42} {extra['failed_frac']:.6g} ratio")
        for pred, value in extra["reference_rmse_p50"].items():
            print(f"{args.workload:>13} {'reference rmse ' + pred + ' (not gated)':<42} "
                  f"{value:.6g} power")
        if extra["pool_efficiency"] is not None:
            print(f"{args.workload:>13} {'pool_efficiency':<42} {extra['pool_efficiency']:.4g} ratio")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"results in {run_dir.relative_to(prepare.ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
