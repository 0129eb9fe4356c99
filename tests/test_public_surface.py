"""The public surface: the names pcnmf exports, the settings its configs take, the
ones the traced benchmark wraps and reads, the names each module imports, and the
README's examples."""

import ast
import dataclasses
import importlib
import importlib.util
import json
import re
import shlex
from pathlib import Path

import numpy as np

import pcnmf
from pcnmf import (ExperimentConfig, IterationRecord, MaskedMatrix, ScenarioConfig, SolverConfig,
                   SolveTrace, solve)
from pcnmf._config import Config
from pcnmf.cli import build_parser
from pcnmf.solver import IterateSnapshot

# Removing or adding a public name is an API change: edit this list with it.
PUBLIC = [
    "ExperimentConfig",
    "FactorPair",
    "IterationRecord",
    "MaskedMatrix",
    "NumericFailureError",
    "ScenarioConfig",
    "ScenarioTruth",
    "ShapeMismatchError",
    "SolveTrace",
    "SolverConfig",
    "SummaryRow",
    "TrialResult",
    "activation_rate_for_duty",
    "compute_reweights",
    "derive_trial_seeds",
    "fit_gradient",
    "generate_scenario",
    "infer_activations",
    "load_dense_csv",
    "load_masked_csv",
    "markov_activity",
    "objective",
    "path_gain",
    "penalty_smoothed",
    "place_network",
    "read_trials_csv",
    "rmse_missing",
    "rmse_missing_pooled",
    "run_sweep",
    "run_trial",
    "save_dense_csv",
    "save_masked_csv",
    "save_scenario",
    "scale_rows_to_reference",
    "solve",
    "surrogate_per_slot",
    "transition_count",
    "weighted_fit",
    "write_benchmark_outputs",
]

# The public names that nothing in the package or the traced benchmark calls, and why
# each stays public.
KEEP = {
    "fit_gradient": "ROADMAP item 8 keeps the objective's gradient for checks of a solve",
    "load_dense_csv": "it reads the dense CSVs that pcnmf writes",
    "objective": "ROADMAP item 8 keeps the solver's objective for checks of a solve",
    "read_trials_csv": "it reads the trials.csv that pcnmf benchmark writes",
}

# Adding or dropping a setting is an API change too: edit these with it.
SETTINGS = {
    SolverConfig: ["beta", "epsilon", "rank", "max_iters", "rel_tol", "init_seed"],
    ScenarioConfig: ["area_side", "n_pu", "n_su", "t_slots", "d0", "alpha", "eta", "duty",
                     "a_range", "power_range", "p_obs", "noise_var", "seed"],
    ExperimentConfig: ["scenario", "solver", "trials", "gamma_window", "sweep", "methods"],
}

# solve fills these once per iteration: a new field costs every iteration, so
# adding one is a visible edit here.
TRACE_FIELDS = {
    IterationRecord: ["iteration", "fit", "penalty", "objective", "clamped"],
    IterateSnapshot: ["activations_updated", "gains_updated", "pair"],
    SolveTrace: ["records", "iterates", "initial", "stop_reason"],
}

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "pcnmf"


def _spans():
    """perfbench/spans.py, loaded by its file path."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_config_settings_are_pinned():
    for cls, names in SETTINGS.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__


def test_every_config_reads_and_writes_json_by_one_rule():
    for cls in SETTINGS:
        assert issubclass(cls, Config), cls.__name__
        assert not {"from_dict", "to_dict"} & set(vars(cls)), cls.__name__


def test_trace_record_fields_are_pinned():
    for cls, names in TRACE_FIELDS.items():
        assert [f.name for f in dataclasses.fields(cls)] == names, cls.__name__


def test_public_surface_is_pinned_and_traced_targets_resolve():
    assert PUBLIC == sorted(PUBLIC)
    assert pcnmf.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(pcnmf, name), name
    # The traced benchmark wraps these (module, attribute) pairs by name, so
    # removing or renaming one breaks it.
    spans = _spans()
    assert spans.TARGETS
    for module_name, attr, *_ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            (module_name, attr)


def test_every_public_name_has_a_caller_or_a_reason():
    # A public name is called (read as a name) somewhere in the package beyond its own
    # definition, or in perfbench/, whose traced TARGETS name what they wrap by string;
    # a name that nothing calls leaves the package unless KEEP says why it stays.
    called = {attr for _, attr, *_ in _spans().TARGETS}
    for path in [*PACKAGE.glob("*.py"), *SPANS.parent.glob("*.py")]:
        if path.name != "__init__.py":
            called |= {node.id for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                       if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(set(pcnmf.__all__) - called) == sorted(KEEP)


def test_every_module_level_import_is_used():
    # __init__.py's imports are its re-exports, and a __future__ import binds no name.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [alias.asname or alias.name.split(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported if name not in used]
    assert unused == []


def _unobserved_slot_solve():
    """A 3-iteration solve at beta = 0 of a 4 x 6 matrix whose slot 2 is unobserved,
    which clamps both rows of that slot every iteration."""
    values, mask = np.random.default_rng(0).uniform(0.1, 1.0, (4, 6)), np.ones((4, 6))
    mask[:, 2] = 0.0
    s = MaskedMatrix(values * mask, mask)
    cfg = SolverConfig(beta=0.0, rank=2, max_iters=3, rel_tol=0.0)
    return (s, cfg), solve(s, cfg)


def test_traced_solve_info_reads_a_real_trace():
    # The traced benchmark records these fields of every solve call it wraps.
    args, result = _unobserved_slot_solve()
    assert _spans()._solve_info(args, result) == {"iters": 3, "max_iters": 3, "clamped": 6}


def test_trace_csv_clamped_column_counts_the_clamps(tmp_path):
    _, (_, trace) = _unobserved_slot_solve()
    trace.to_csv(tmp_path / "trace.csv")
    header, *rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert header.split(",")[-1] == "clamped"
    assert sum(int(row.split(",")[-1]) for row in rows) == 6


def test_readme_library_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)\n```\n", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    truth, s_hat = namespace["truth"], namespace["s_hat"]
    assert s_hat.shape == truth.observed.shape
    assert np.isfinite(s_hat).all()


def test_readme_experiment_json_example_is_a_valid_config():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("`experiment.json` example:\n", 1)[1]
    text = re.match(r"\s*```json\n(.*?)\n```\n", section, re.DOTALL).group(1)
    assert ExperimentConfig.from_dict(json.loads(text)).sweep


def test_readme_cli_examples_parse():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)\n```\n", readme, re.DOTALL)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("pcnmf ")]
    assert {line.split()[1] for line in commands} == {"simulate", "solve", "benchmark"}
    for line in commands:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])
