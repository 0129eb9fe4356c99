"""Span recorder for the traced run, and the per-layer metrics derived from it.

Spans are recorded from the benchmark's own code: each public pcnmf function
listed in TARGETS is replaced, in the module its caller looks it up in, by a
wrapper that opens a span around the call. Spans stay in memory (parallel
arrays) and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import os
import time
from array import array

import numpy as np

OP = "op"

# Layers reported by every traced run, whether or not the workload reaches
# them, so a layer a workload bypasses reads 0 calls.
LAYERS = (
    "cli",
    "bench.run_sweep",
    "bench.write_benchmark_outputs",
    "bench.run_trial",
    "bench.score",
    "bench.scale_rows_to_reference",
    "simulate.generate_scenario",
    "simulate.save_scenario",
    "solver.solve",
    "solver.infer_activations",
    "solver.surrogate_per_slot",
    "solver.compute_reweights",
    "matrices.save_masked_csv",
    "matrices.load_masked_csv",
    "matrices.save_dense_csv",
)
VARIANTS = {
    "cli": ("simulate", "solve", "benchmark"),
    "solver.solve": ("pcnmf", "wnmf"),
    "solver.infer_activations": ("pcnmf", "wnmf"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.info: dict[int, dict] = {}
        self.op_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def write_csv_gz(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,op\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]},{self.op[i]}\n"
                )


def _method(cfg) -> str:
    return "pcnmf" if cfg.beta > 0 else "wnmf"


def _solve_info(args, result):
    cfg, (_, trace) = args[1], result
    return {
        "iters": trace.iterations,
        "max_iters": cfg.max_iters,
        "clamped": int(sum(rec.clamped for rec in trace.records)),
    }


def _bytes_at(pos):
    return lambda args, result: {"bytes": os.path.getsize(args[pos])}


# (module the caller looks the name up in, attribute, span name or a
# function of the positional args giving it, info recorded after the call)
TARGETS = (
    ("pcnmf.cli", "run_sweep", "bench.run_sweep", None),
    ("pcnmf.cli", "write_benchmark_outputs", "bench.write_benchmark_outputs", None),
    ("pcnmf.cli", "generate_scenario", "simulate.generate_scenario", None),
    ("pcnmf.cli", "save_scenario", "simulate.save_scenario", None),
    ("pcnmf.cli", "solve", lambda a: "solver.solve:" + _method(a[1]), _solve_info),
    ("pcnmf.cli", "load_masked_csv", "matrices.load_masked_csv", _bytes_at(0)),
    ("pcnmf.cli", "save_dense_csv", "matrices.save_dense_csv", _bytes_at(1)),
    ("pcnmf.simulate", "save_masked_csv", "matrices.save_masked_csv", _bytes_at(1)),
    ("pcnmf.simulate", "save_dense_csv", "matrices.save_dense_csv", _bytes_at(1)),
    ("pcnmf.bench", "run_trial", "bench.run_trial", None),
    ("pcnmf.bench", "generate_scenario", "simulate.generate_scenario", None),
    ("pcnmf.bench", "solve", lambda a: "solver.solve:" + _method(a[1]), _solve_info),
    ("pcnmf.bench", "infer_activations",
     lambda a: "solver.infer_activations:" + _method(a[2]), None),
    ("pcnmf.bench", "rmse_missing", "bench.score", None),
    ("pcnmf.bench", "rmse_missing_pooled", "bench.score", None),
    ("pcnmf.bench", "weighted_fit", "bench.score", None),
    ("pcnmf.bench", "transition_count", "bench.score", None),
    ("pcnmf.bench", "scale_rows_to_reference", "bench.scale_rows_to_reference", None),
    ("pcnmf.solver", "surrogate_per_slot", "solver.surrogate_per_slot", None),
    ("pcnmf.solver", "compute_reweights", "solver.compute_reweights", None),
)


def _wrap(tracer: Tracer, fn, name, info):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name if isinstance(name, str) else name(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if info is not None:
            tracer.info[idx] = info(args, result)
        return result

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore them."""
    saved = []
    try:
        for module_name, attr, name, info in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, fn, name, info))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over every span recorded inside an op span."""
    n = len(tracer.start)
    names = [tracer.names[i] for i in tracer.name]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    layer = np.array([s.split(":")[0] for s in names], dtype=object)
    variant = np.array([s.partition(":")[2] for s in names], dtype=object)

    is_op = layer == OP
    wall = float(dur[is_op].sum())
    out: dict[str, tuple[float, str]] = {}

    def median(values) -> float:
        return float(np.median(values)) if len(values) else 0.0

    for name in LAYERS:
        sel = layer == name
        out[f"{name}.s"] = (median(dur[sel]), "s")
        out[f"{name}.calls"] = (int(sel.sum()), "count")
        out[f"{name}.share"] = (float(dur[sel].sum()) / wall, "ratio")
        out[f"{name}.self_share"] = (float(self_time[sel].sum()) / wall, "ratio")
        for v in VARIANTS.get(name, ()):
            out[f"{name}.{v}.s"] = (median(dur[sel & (variant == v)]), "s")

    out["cli.self_s"] = (median(self_time[layer == "cli"]), "s")
    out["bench.run_trial.self_s"] = (median(self_time[layer == "bench.run_trial"]), "s")

    solves = [(float(dur[i]), tracer.info[i]) for i in np.flatnonzero(layer == "solver.solve")]
    iters = [s["iters"] for _, s in solves]
    out["solver.solve.iters"] = (median(iters), "count")
    out["solver.solve.us_per_iter"] = (
        median([1e6 * d / s["iters"] for d, s in solves if s["iters"]]), "us")
    out["solver.solve.max_iters_frac"] = (
        float(np.mean([s["iters"] == s["max_iters"] for _, s in solves])) if solves else 0.0,
        "ratio")
    out["solver.solve.clamped"] = (
        float(np.mean([s["clamped"] for _, s in solves])) if solves else 0.0, "count")

    csv = np.isin(layer, ["matrices.save_masked_csv", "matrices.load_masked_csv",
                          "matrices.save_dense_csv"])
    csv_bytes = sum(tracer.info[i]["bytes"] for i in np.flatnonzero(csv))
    csv_s = float(dur[csv].sum())
    out["matrices.csv_mb_per_s"] = (csv_bytes / 1e6 / csv_s if csv_s else 0.0, "MB/s")

    out["trace.ops"] = (int(is_op.sum()), "count")
    out["trace.self_sum_frac"] = (float(self_time[~is_op].sum()) / wall, "ratio")
    return out
