"""CLI tests: simulate/solve/benchmark subcommands and their artifacts."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcnmf
from pcnmf import (
    ExperimentConfig,
    ScenarioConfig,
    SolverConfig,
    load_dense_csv,
    load_masked_csv,
    read_trials_csv,
    run_sweep,
    write_benchmark_outputs,
)
from pcnmf.cli import main


@pytest.fixture()
def scenario_dir(tmp_path):
    out = tmp_path / "scenario"
    cfg = {"n_pu": 2, "n_su": 5, "t_slots": 24, "noise_var": 1e-8}
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(cfg_path), "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    return out


def test_simulate_emits_scenario_directory(scenario_dir):
    for name in ("observed.csv", "truth_s.csv", "truth_p.csv",
                 "activity.csv", "config.json"):
        assert (scenario_dir / name).exists()
    echoed = json.loads((scenario_dir / "config.json").read_text())
    assert echoed["seed"] == 7
    assert echoed["n_pu"] == 2
    observed = load_masked_csv(scenario_dir / "observed.csv")
    truth_s = load_dense_csv(scenario_dir / "truth_s.csv")
    assert observed.shape == truth_s.shape == (5, 24)


def test_solve_emits_factors_and_sidecar(scenario_dir, tmp_path):
    out = tmp_path / "fit"
    cfg_path = tmp_path / "solver.json"
    cfg_path.write_text(json.dumps({"rank": 2, "max_iters": 40, "beta": 5e-3}))
    rc = main(["solve", str(scenario_dir / "observed.csv"),
               "--config", str(cfg_path), "--seed", "1", "--out", str(out)])
    assert rc == 0
    gains = load_dense_csv(out / "gains.csv")
    acts = load_dense_csv(out / "activations.csv")
    assert gains.shape == (5, 2) and acts.shape == (2, 24)
    sidecar = json.loads((out / "solve.json").read_text())
    assert sidecar["rank"] == 2
    assert sidecar["beta"] == 5e-3
    assert sidecar["iterations_run"] == 40
    assert sidecar["stop_reason"] == "max_iters"
    assert sidecar["final_objective"] > 0
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "iter,fit,penalty,objective,clamped"
    assert len(trace_lines) == 41
    first = trace_lines[1].split(",")
    assert float(first[3]) == float(first[1]) + 5e-3 * float(first[2])


def test_benchmark_emits_summary_and_trials(tmp_path):
    cfg = {
        "scenario": {"n_pu": 2, "n_su": 5, "t_slots": 20, "seed": 11,
                     "noise_var": 1e-8},
        "solver": {"rank": 2, "max_iters": 30, "beta": 5e-3},
        "trials": 2,
        "gamma_window": 14,
    }
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "bench"
    rc = main(["benchmark", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == ("sweep_param,sweep_value,method,mean_rmse,stderr_rmse,"
                        "trials_ok,trials_failed,mean_seconds")
    assert len(lines) == 3  # header + 2 methods
    trials = (out / "trials.csv").read_text().splitlines()
    assert len(trials) == 1 + 2 * 2


def test_benchmark_flags_override_config(tmp_path):
    out = tmp_path / "bench"
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({
        "scenario": {"n_pu": 2, "n_su": 4, "t_slots": 16, "noise_var": 1e-8},
        "solver": {"rank": 2, "max_iters": 20},
        "trials": 5,
        "gamma_window": 10,
    }))
    rc = main(["benchmark", "--config", str(cfg_path), "--seed", "3",
               "--trials", "1", "--methods", "wnmf", "--out", str(out)])
    assert rc == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[2] == "wnmf"


def test_benchmark_no_timing_blanks_seconds(tmp_path):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({
        "scenario": {"n_pu": 2, "n_su": 4, "t_slots": 16, "seed": 5,
                     "noise_var": 1e-8},
        "solver": {"rank": 2, "max_iters": 20},
        "trials": 1,
        "gamma_window": 10,
    }))
    out = tmp_path / "bench"
    rc = main(["benchmark", "--config", str(cfg_path), "--no-timing",
               "--out", str(out)])
    assert rc == 0
    for line in (out / "summary.csv").read_text().splitlines()[1:]:
        assert line.endswith(",")
    for row in read_trials_csv(out / "trials.csv"):
        assert all(math.isnan(row[name])
                   for name in ("seconds", "simulate_s", "learn_s", "infer_s", "score_s"))


def test_benchmark_save_traces(tmp_path):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({
        "scenario": {"n_pu": 2, "n_su": 4, "t_slots": 16, "seed": 5,
                     "noise_var": 1e-8},
        "solver": {"rank": 2, "max_iters": 20},
        "trials": 2,
        "gamma_window": 10,
    }))
    out = tmp_path / "bench"
    rc = main(["benchmark", "--config", str(cfg_path), "--save-traces",
               "--out", str(out)])
    assert rc == 0
    for trial in (0, 1):
        for method in ("pcnmf", "wnmf"):
            assert (out / f"trace_{trial}_{method}.csv").exists()


def test_missing_config_file_is_hard_error(tmp_path):
    rc = main(["benchmark", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "x")])
    assert rc == 1


def test_invalid_config_value_is_hard_error(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"trials": 0}))
    rc = main(["benchmark", "--config", str(cfg_path),
               "--out", str(tmp_path / "x")])
    assert rc == 1


@pytest.mark.parametrize("command, config", [
    ("simulate", {"n_pu": 2, "bogus_key": 1}),
    ("solve", {"rank": 2, "bogus_key": 1}),
    ("benchmark", {"trials": 1, "bogus_key": 1}),
    ("benchmark", {"solver": {"rank": 2, "bogus_key": 1}}),
    ("benchmark", {"scenario": {"n_pu": 2, "bogus_key": 1}}),
])
def test_unknown_config_key_is_named_error(tmp_path, capsys, command, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]
    if command == "solve":
        argv.insert(1, str(tmp_path / "observed.csv"))
    assert main(argv) == 1
    assert "'bogus_key'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_non_object_config_is_hard_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2]")
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, key", [
    ("solve", {"rank": "5"}, "rank"),
    ("solve", {"max_iters": 10.0}, "max_iters"),
    ("solve", {"beta": True}, "beta"),
    ("simulate", {"n_su": "20"}, "n_su"),
    ("simulate", {"a_range": [0.05]}, "a_range"),
    ("benchmark", {"trials": 2.0}, "trials"),
    ("benchmark", {"scenario": {"seed": 1.5}}, "seed"),
    ("benchmark", {"scenario": [1]}, "ScenarioConfig must be a JSON object, got list"),
    ("benchmark", {"solver": 5}, "SolverConfig must be a JSON object, got int"),
])
def test_wrong_config_type_is_named_error(tmp_path, capsys, command, config, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]
    if command == "solve":
        argv.insert(1, str(tmp_path / "observed.csv"))
    assert main(argv) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# A benchmark that runs in well under a second, should a bad config slip through.
TINY_BENCHMARK = {
    "scenario": {"n_pu": 2, "n_su": 4, "t_slots": 16, "seed": 5, "noise_var": 1e-8},
    "solver": {"rank": 2, "max_iters": 5},
    "trials": 1,
    "gamma_window": 10,
}


def _run_with_config(tmp_path, command, config_text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(config_text)
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]
    if command == "solve":
        argv.insert(1, str(tmp_path / "observed.csv"))
    return main(argv)


@pytest.mark.parametrize("config, named", [
    ({"sweep": 3}, "sweep"),
    ({"sweep": [["p_obs", 5]]}, "sweep"),
    ({"sweep": [["p_obs"]]}, "sweep"),
    ({"sweep": [["p_obs", []]]}, "sweep over 'p_obs' has no values"),
    ({"methods": 5}, "methods"),
    ({"methods": ["pcnmf", "pcnmf"]}, "methods"),
    ({"sweep": [["p_obs", [0.5, 0.5]]]}, "sweep value 0.5 for 'p_obs' is repeated"),
    ({"sweep": [["p_obs", [0.5]], ["p_obs", [0.9, 0.5]]]},
     "sweep value 0.5 for 'p_obs' is repeated"),
    ({"sweep": [["p_obs", ["0.5"]]]}, "sweep value '0.5' for 'p_obs'"),
    ({"sweep": [["noise_var", [True]]]}, "sweep value True for 'noise_var'"),
    ({"sweep": [["solver.guard", [1e-12]]]}, "unsupported sweep parameter 'solver.guard'"),
])
def test_malformed_sweep_or_methods_is_named_error(tmp_path, capsys, config, named):
    config = {**TINY_BENCHMARK, **config}
    assert _run_with_config(tmp_path, "benchmark", json.dumps(config)) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, config_text, named", [
    ("solve", '{"rank": 2, "rank": 3, "max_iters": 2}', "duplicate key 'rank'"),
    ("benchmark", '{"trials": 1, "solver": {"rank": 2, "max_iters": 5, "rank": 3}}',
     "duplicate key 'rank'"),
    ("simulate", "", "Expecting value: line 1 column 1 (char 0)"),
], ids=["duplicate-key", "nested-duplicate-key", "empty-file"])
def test_malformed_config_json_is_one_error_naming_the_file(tmp_path, capsys, command,
                                                            config_text, named):
    assert _run_with_config(tmp_path, command, config_text) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'cfg.json'}: {named}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, config", [
    ("solve", {"guard": 1e-12}),
    ("benchmark", {**TINY_BENCHMARK, "solver": {"rank": 2, "max_iters": 5, "guard": 1e-12}}),
], ids=["solve", "benchmark-solver"])
def test_retired_guard_setting_is_named_error(tmp_path, capsys, command, config):
    # The denominator guard is the solver's constant GUARD, not a setting.
    assert _run_with_config(tmp_path, command, json.dumps(config)) == 1
    assert "unknown SolverConfig keys: 'guard'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


_PAST_FLOAT64 = 10**400


@pytest.mark.parametrize("command, config_text, key", [
    ("simulate", '{"area_side": Infinity}', "area_side"),
    ("simulate", '{"power_range": [100, Infinity]}', "power_range"),
    ("simulate", '{"noise_var": NaN}', "noise_var"),
    ("solve", '{"beta": NaN}', "beta"),
    ("solve", '{"epsilon": Infinity}', "epsilon"),
    ("solve", '{"rel_tol": -Infinity}', "rel_tol"),
    ("benchmark", json.dumps({**TINY_BENCHMARK, "solver": {"rank": 2, "beta": math.nan}}),
     "beta"),
    ("benchmark", json.dumps({**TINY_BENCHMARK, "sweep": [["noise_var", [math.nan]]]}),
     "noise_var"),
    # A JSON integer too large for float64 is no finite float either.
    pytest.param("simulate", json.dumps({"noise_var": _PAST_FLOAT64}), "'noise_var'",
                 id="simulate-noise_var-past-float64"),
    pytest.param("simulate", json.dumps({"power_range": [100, _PAST_FLOAT64]}), "power_range",
                 id="simulate-power_range-past-float64"),
    pytest.param("solve", json.dumps({"beta": _PAST_FLOAT64}), "'beta'",
                 id="solve-beta-past-float64"),
    pytest.param("benchmark",
                 json.dumps({**TINY_BENCHMARK, "sweep": [["p_obs", [_PAST_FLOAT64]]]}),
                 f"sweep value {_PAST_FLOAT64} for 'p_obs'", id="benchmark-p_obs-past-float64"),
])
def test_non_finite_config_number_is_named_error(tmp_path, capsys, command,
                                                 config_text, key):
    assert _run_with_config(tmp_path, command, config_text) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err and "finite" in err
    assert not (tmp_path / "x").exists()


# A JSON integer in a float field is stored as a float: numpy has no sqrt of the int
# 10**30, and the int 10**200 squared is too large to convert to a float.
@pytest.mark.parametrize("command, config", [
    ("simulate", {"n_pu": 2, "n_su": 4, "t_slots": 16, "noise_var": 10**30}),
    ("benchmark", {**TINY_BENCHMARK, "scenario": {**TINY_BENCHMARK["scenario"],
                                                  "noise_var": 10**30}}),
    ("solve", {"rank": 2, "max_iters": 5, "epsilon": 10**200}),
    ("benchmark", {**TINY_BENCHMARK, "solver": {"rank": 2, "max_iters": 5,
                                                "epsilon": 10**200}}),
], ids=["simulate-noise_var", "benchmark-noise_var", "solve-epsilon", "benchmark-epsilon"])
def test_large_json_integer_in_a_float_field_runs(tmp_path, capsys, command, config):
    if command == "solve":
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(TINY_BENCHMARK["scenario"]))
        assert main(["simulate", "--config", str(scenario), "--out", str(tmp_path)]) == 0
    assert _run_with_config(tmp_path, command, json.dumps(config)) == 0
    assert capsys.readouterr().err == ""
    written = {"simulate": "config.json", "solve": "solve.json", "benchmark": "trials.csv"}
    assert (tmp_path / "x" / written[command]).is_file()


@pytest.mark.parametrize("config, named", [
    ({"a_range": [-0.1, 0.1]}, ["a_range"]),
    ({"duty": 0.9}, ["duty", "a_range"]),
])
def test_simulate_a_range_the_generator_cannot_run_is_named_error(tmp_path, capsys,
                                                                  config, named):
    for seed in range(3):
        assert _run_with_config(tmp_path, "simulate", json.dumps({**config, "seed": seed})) == 1
        err = capsys.readouterr().err
        assert all(name in err for name in named), err
    assert not (tmp_path / "x").exists()


def test_simulate_huge_count_is_named_error(tmp_path, capsys):
    # The sensor positions alone would take 1.6 PB, more than a 64-bit
    # process can map, so the allocation fails at once on any machine.
    assert _run_with_config(tmp_path, "simulate", json.dumps({"n_su": 10**14})) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, named", [
    ("simulate", "ScenarioConfig field 'seed' must be >= 0, got -1"),
    ("solve", "SolverConfig field 'init_seed' must be >= 0, got -1"),
    ("benchmark", "ScenarioConfig field 'seed' must be >= 0, got -1"),
], ids=["simulate-seed must be >= 0", "solve-init_seed must be >= 0",
        "benchmark-seed must be >= 0"])
def test_negative_seed_flag_is_named_error(tmp_path, capsys, command, named):
    argv = [command, "--seed", "-1", "--out", str(tmp_path / "x")]
    if command == "solve":
        argv.insert(1, str(tmp_path / "observed.csv"))
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {named}\n"
    assert not (tmp_path / "x").exists()


def test_solve_numeric_failure_is_named_error(tmp_path, capsys):
    observed = tmp_path / "observed.csv"
    observed.write_text("r,t,value,observed\n" + "".join(
        f"{r},{t},1e308,1\n" for r in range(4) for t in range(6)))
    with np.errstate(all="ignore"):
        rc = main(["solve", str(observed), "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err.strip().endswith(
        "error: non-finite iterate at iteration 1")
    assert not (tmp_path / "x").exists()


def test_benchmark_no_timing_trials_are_byte_reproducible(tmp_path):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({
        "scenario": {"n_pu": 2, "n_su": 4, "t_slots": 16, "seed": 5,
                     "noise_var": 1e-8},
        "solver": {"rank": 2, "max_iters": 20},
        "trials": 2,
        "gamma_window": 10,
        "sweep": [["p_obs", [0.5, 0.9]]],
    }))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["benchmark", "--config", str(cfg_path), "--no-timing",
                     "--out", str(out)]) == 0
        outs.append((out / "trials.csv").read_bytes())
    assert outs[0] == outs[1]
    header, *rows = outs[0].decode().splitlines()
    seconds = header.split(",").index("seconds")
    assert len(rows) == 2 * 2 * 2
    assert all(row.split(",")[seconds] == "" for row in rows)


@pytest.mark.parametrize("blocked", ["observed.csv", "truth_s.csv"])
def test_simulate_unwritable_file_is_named_error(tmp_path, capsys, blocked):
    # observed.csv is written by this process, truth_s.csv by a forked child.
    out = tmp_path / "scenario"
    (out / blocked).mkdir(parents=True)
    assert main(["simulate", "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"{blocked}'" in err
    assert not (out / "config.json").exists()
    with pytest.raises(ChildProcessError):  # the forked child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_simulate_truth_file_error_is_one_line_in_a_real_process(tmp_path):
    # capsys cannot see a forked child's stderr: only a real process shows
    # whether the child printed a traceback beside the error line.
    out = tmp_path / "scenario"
    (out / "truth_p.csv").mkdir(parents=True)
    src = str(Path(pcnmf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pcnmf.cli", "simulate", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and done.stderr.endswith("truth_p.csv'\n")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert not (out / "config.json").exists()


def test_benchmark_help_names_every_column_no_timing_blanks(tmp_path, capsys):
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(seed=1, n_pu=2, n_su=4, t_slots=16, noise_var=1e-8),
        solver=SolverConfig(rank=2, max_iters=5), trials=1, gamma_window=10,
        methods=("pcnmf",))
    summary, trials = run_sweep(cfg)
    for timing in (True, False):
        write_benchmark_outputs(tmp_path / str(timing), summary, trials, include_timing=timing)
    blanked = set()
    for name in ("summary.csv", "trials.csv"):
        timed, untimed = (next(csv.DictReader((tmp_path / str(timing) / name).read_text()
                                              .splitlines())) for timing in (True, False))
        blanked |= {col for col in timed if timed[col] != untimed[col]}
    assert {"mean_seconds", "seconds", "simulate_s", "score_s"} <= blanked
    with pytest.raises(SystemExit):
        main(["benchmark", "--help"])
    help_text = capsys.readouterr().out
    assert [col for col in sorted(blanked) if not re.search(rf"\b{col}\b", help_text)] == []
