"""The public surface: the names pcnmf exports, and the ones the traced benchmark wraps."""

import importlib
import importlib.util
from pathlib import Path

import pcnmf

# Removing or adding a public name is an API change: edit this list with it.
PUBLIC = [
    "ACTIVATION_FLOOR",
    "DegenerateFactorError",
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
    "UndefinedMetricError",
    "activation_rate_for_duty",
    "compute_reweights",
    "derive_trial_seeds",
    "fading_step",
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
    "rescale",
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
    "update_activations",
    "update_gains",
    "weighted_fit",
    "write_benchmark_outputs",
    "write_summary_csv",
    "write_trials_csv",
]

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_public_surface_is_pinned_and_traced_targets_resolve():
    assert PUBLIC == sorted(PUBLIC)
    assert pcnmf.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(pcnmf, name), name
    # The traced benchmark wraps these (module, attribute) pairs by name, so
    # removing or renaming one breaks it.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, attr, *_ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            (module_name, attr)
