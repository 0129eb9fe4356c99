"""Writer oracle: pcnmf's CSV writers against the per-file writers they replaced.

The reference writers below are the earlier implementations, copied
unchanged apart from taking the trace records as an argument, the trace's
clamped column, added after them, and dropping the dense writer's shape
check: csv.writer with repr of each float for the matrix files, and
hand-joined lines for the trace and the two benchmark tables. Traces and
tables must match byte for byte; matrix files once the references' CRLF
line ends become LF, and they must load back bit for bit.
"""

import csv
import math

import numpy as np
import pytest

from pcnmf import (
    IterationRecord,
    MaskedMatrix,
    SolveTrace,
    SummaryRow,
    TrialResult,
    load_dense_csv,
    load_masked_csv,
    save_dense_csv,
    save_masked_csv,
    write_benchmark_outputs,
)

# Zero, the smallest subnormal, a tiny normal, a float beyond integer
# precision and a decimal with no exact binary form.
VALUES = [0.0, 5e-324, 1e-300, 1e16, 123.456]
# Negative zero, the values on either side of repr's switch to exponent form
# at 1e-4 and the largest one below 1e16, the smallest normal and the
# largest float.
EDGE_VALUES = [-0.0, 9.999999999999999e-05, 1e-4, 9999999999999998.0,
               2.2250738585072014e-308, 1.7976931348623157e308]
NAN = float("nan")


# ------------------------------------------------------------ the references

def _fmt(x: float) -> str:
    # repr() of a Python float is the shortest round-trip decimal.
    return repr(float(x))


def _ref_save_masked_csv(s: MaskedMatrix, path) -> None:
    """Write a MaskedMatrix as long-format CSV with header r,t,value,observed."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "t", "value", "observed"])
        n_rows, n_cols = s.shape
        for r in range(n_rows):
            for t in range(n_cols):
                writer.writerow([r, t, _fmt(s.values[r, t]), int(s.mask[r, t])])


def _ref_save_dense_csv(matrix: np.ndarray, path) -> None:
    """Write a dense matrix as plain CSV (no header), shortest round-trip floats."""
    arr = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in arr:
            writer.writerow([_fmt(v) for v in row])


def _ref_trace_to_csv(records, path) -> None:
    """Export as CSV with columns iter,fit,penalty,objective,clamped."""
    with open(path, "w", newline="") as fh:
        fh.write("iter,fit,penalty,objective,clamped\n")
        for rec in records:
            fh.write(
                f"{rec.iteration},{rec.fit!r},{rec.penalty!r},{rec.objective!r},"
                f"{rec.clamped}\n"
            )


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and np.isnan(value):
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _ref_write_summary_csv(rows, path, include_timing: bool = True) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(
            "sweep_param,sweep_value,method,mean_rmse,stderr_rmse,"
            "trials_ok,trials_failed,mean_seconds\n"
        )
        for row in rows:
            secs = _cell(row.mean_seconds) if include_timing else ""
            fh.write(
                ",".join(
                    [
                        row.sweep_param,
                        _cell(row.sweep_value),
                        row.method,
                        _cell(row.mean_rmse),
                        _cell(row.stderr_rmse),
                        str(row.trials_ok),
                        str(row.trials_failed),
                        secs,
                    ]
                )
                + "\n"
            )


def _ref_write_trials_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(
            "sweep_param,sweep_value,trial,method,seed,rmse,rmse_pooled,"
            "fit,iterations,seconds,transitions,failed,error\n"
        )
        for r in rows:
            fh.write(
                ",".join(
                    [
                        r.sweep_param, _cell(r.sweep_value), str(r.trial),
                        r.method, str(r.seed), _cell(r.rmse),
                        _cell(r.rmse_pooled), _cell(r.fit), str(r.iterations),
                        _cell(r.seconds), _cell(r.transitions),
                        str(int(r.failed)), r.error,
                    ]
                )
                + "\n"
            )


# ------------------------------------------------------------------ helpers

def _assert_same(tmp_path, write, write_ref, crlf=False):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(got)
    write_ref(want)
    expected = want.read_bytes()
    if crlf:
        assert b"\r\n" in expected  # the reference really used CRLF
        expected = expected.replace(b"\r\n", b"\n")
    assert got.read_bytes() == expected


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _matrices():
    rng = np.random.default_rng(3)
    values = np.array([VALUES, VALUES[::-1]])
    yield values
    yield values.T
    yield np.array([[123.456]])
    yield rng.uniform(0, 1, (4, 6)) * np.array([1e-300, 1e-9, 1.0, 1e6, 1e16, 5e-324])
    yield np.array([EDGE_VALUES, EDGE_VALUES[::-1]])


# -------------------------------------------------------------------- tests

@pytest.mark.parametrize("matrix", list(_matrices()))
def test_dense_csv_matches_reference(tmp_path, matrix):
    _assert_same(tmp_path, lambda p: save_dense_csv(matrix, p),
                 lambda p: _ref_save_dense_csv(matrix, p), crlf=True)
    assert np.array_equal(_bits(load_dense_csv(tmp_path / "got.csv")), _bits(matrix))


@pytest.mark.parametrize("matrix", list(_matrices()))
def test_masked_csv_matches_reference(tmp_path, matrix):
    mask = (np.arange(matrix.size).reshape(matrix.shape) % 3 != 1).astype(float)
    for m in (MaskedMatrix(matrix, np.ones_like(matrix)), MaskedMatrix(matrix, mask)):
        _assert_same(tmp_path, lambda p: save_masked_csv(m, p),
                     lambda p: _ref_save_masked_csv(m, p), crlf=True)
        back = load_masked_csv(tmp_path / "got.csv")
        assert np.array_equal(_bits(back.values), _bits(m.values))
        assert np.array_equal(back.mask, m.mask)


def test_trace_csv_matches_reference(tmp_path):
    records = [
        IterationRecord(iteration=i + 1, fit=v, penalty=VALUES[-1 - i],
                        objective=v + 5e-3 * VALUES[-1 - i], clamped=i)
        for i, v in enumerate(VALUES)
    ]
    for recs in (records, []):
        trace = SolveTrace(records=recs)
        _assert_same(tmp_path, trace.to_csv, lambda p: _ref_trace_to_csv(recs, p))


def _summary_rows():
    return [
        SummaryRow("none", None, "pcnmf", VALUES[1], NAN, 3, 0, VALUES[4]),
        SummaryRow("none", None, "wnmf", NAN, NAN, 0, 3, NAN),
        SummaryRow("noise_var", 1e-300, "pcnmf", 1e16, 0.0, 2, 1, 5e-324),
        SummaryRow("p_obs", 0.7, "wnmf", 123.456, 1e-300, 1, 0, 0.0),
    ]


def _write_via_outputs(name, summary, trials, path, include_timing=True):
    """The table name (summary.csv or trials.csv) of write_benchmark_outputs, moved to path."""
    write_benchmark_outputs(path.parent / "out", summary, trials, include_timing=include_timing)
    (path.parent / "out" / name).replace(path)


@pytest.mark.parametrize("include_timing", [True, False])
def test_summary_csv_matches_reference(tmp_path, include_timing):
    rows = _summary_rows()
    _assert_same(tmp_path, lambda p: _write_via_outputs("summary.csv", rows, [], p, include_timing),
                 lambda p: _ref_write_summary_csv(rows, p, include_timing))


def test_trials_csv_matches_reference(tmp_path):
    rows = [
        TrialResult("none", None, 0, "pcnmf", 2277900426, VALUES[1], VALUES[2],
                    VALUES[3], 1000, VALUES[4], 15.0),
        TrialResult("none", None, 0, "wnmf", 2277900426, NAN, NAN, 0.0, 40,
                    1e-300, NAN),
        TrialResult("p_obs", 0.5, 1, "pcnmf", 7, NAN, NAN, NAN, 0, 0.25, NAN,
                    failed=True, error="non-finite iterate at iteration 17"),
        TrialResult("noise_var", 1e16, 2, "wnmf", 0, 123.456, 5e-324, 1e16, 3,
                    math.inf, 2.5),
    ]
    _assert_same(tmp_path, lambda p: _write_via_outputs("trials.csv", [], rows, p),
                 lambda p: _ref_write_trials_csv(rows, p))


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
def test_table_cell_that_would_need_quoting_is_named_error(tmp_path, char):
    # csv.writer would quote such a cell; pcnmf writes no quoted cell, and
    # no file either.
    row = TrialResult("none", None, 0, "pcnmf", 7, NAN, NAN, NAN, 0, 0.25, NAN,
                      failed=True, error=f"bad{char}cell")
    with pytest.raises(ValueError, match=r"CSV cell 'bad.+cell' would need quoting"):
        write_benchmark_outputs(tmp_path, [], [row])
    assert not (tmp_path / "trials.csv").exists()
