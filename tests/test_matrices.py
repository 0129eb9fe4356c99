"""Data-model tests: masked matrices, factor pairs, CSV I/O."""

import re
import time
import warnings

import numpy as np
import pytest

from pcnmf import matrices
from pcnmf import (
    FactorPair,
    MaskedMatrix,
    ShapeMismatchError,
    fit_gradient,
    load_dense_csv,
    load_masked_csv,
    save_dense_csv,
    save_masked_csv,
    weighted_fit,
)


def test_masked_matrix_zeroes_missing_placeholders():
    values = np.array([[1.0, np.nan], [np.inf, 4.0]])
    mask = np.array([[1.0, 0.0], [0.0, 1.0]])
    m = MaskedMatrix(values, mask)
    assert m.values[0, 1] == 0.0 and m.values[1, 0] == 0.0
    assert m.values[0, 0] == 1.0 and m.values[1, 1] == 4.0


def test_construction_never_writes_or_shares_caller_arrays():
    rng = np.random.default_rng(8)
    mask = (rng.random((4, 9)) < 0.6).astype(float)
    values = rng.uniform(0.1, 2.0, (4, 9))
    missing = np.flatnonzero(mask == 0)
    assert missing.size >= 3
    values.flat[missing] = np.resize([np.nan, np.inf, -1e6], missing.size)
    gains, acts = rng.uniform(0, 1, (4, 2)), rng.uniform(0, 1, (2, 9))
    before = [a.copy() for a in (values, mask, gains, acts)]
    m = MaskedMatrix(values, mask)
    w = m.window(2, 7)
    pair = FactorPair(gains, acts)
    for caller, snapshot in zip((values, mask, gains, acts), before):
        assert np.array_equal(caller, snapshot, equal_nan=True)
    for stored, callers in (((m.values, m.mask), (values, mask)),
                            ((w.values, w.mask), (m.values, m.mask)),
                            ((pair.gains, pair.activations), (gains, acts))):
        for a in stored:
            assert not any(np.shares_memory(a, b) for b in callers)
    placeholders = m.values[mask == 0]
    assert not placeholders.any() and not np.signbit(placeholders).any()
    assert np.array_equal(m.values[mask == 1], values[mask == 1])
    assert np.array_equal(w.values, m.values[:, 2:7])


def test_masked_matrix_rejects_bad_input():
    ones = np.ones((2, 2))
    with pytest.raises(ShapeMismatchError, match=re.escape("mask shape (2, 2) does not match 2 x 3")):
        MaskedMatrix(np.ones((2, 3)), ones)
    with pytest.raises(ValueError):
        MaskedMatrix(ones, np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        MaskedMatrix(-ones, ones)
    with pytest.raises(ValueError):
        MaskedMatrix(np.full((2, 2), np.nan), ones)


@pytest.mark.parametrize("call, named", [
    (lambda tmp_path: MaskedMatrix(np.ones(3), np.ones((1, 3))), "values must be 2-D, got shape (3,)"),
    (lambda tmp_path: MaskedMatrix(np.ones((1, 3)), np.ones((1, 1, 3))),
     "mask must be 2-D, got shape (1, 1, 3)"),
    (lambda tmp_path: save_dense_csv(np.ones(3), tmp_path / "a.csv"),
     "matrix must be 2-D, got shape (3,)"),
    (lambda tmp_path: save_dense_csv(np.ones((2, 2, 2)), tmp_path / "a.csv"),
     "matrix must be 2-D, got shape (2, 2, 2)"),
], ids=["masked-values-1d", "masked-mask-3d", "dense-1d", "dense-3d"])
def test_non_2d_matrix_is_named_error(tmp_path, call, named):
    with pytest.raises(ShapeMismatchError, match=re.escape(named)):
        call(tmp_path)
    assert not (tmp_path / "a.csv").exists()


def test_masked_matrix_is_immutable():
    m = MaskedMatrix(np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        m.values[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.mask[0, 0] = 0.0


def test_factor_pair_validation():
    with pytest.raises(ShapeMismatchError,
                       match=re.escape("activations shape (3, 4) does not match 2 x T")):
        FactorPair(np.ones((3, 2)), np.ones((3, 4)))
    with pytest.raises(ValueError):
        FactorPair(-np.ones((3, 2)), np.ones((2, 4)))
    pair = FactorPair(np.ones((3, 2)), np.ones((2, 4)))
    assert pair.rank == 2


def test_ops_insensitive_to_missing_placeholders():
    rng = np.random.default_rng(4)
    mask = (rng.random((5, 7)) < 0.6).astype(float)
    base = rng.uniform(0, 3, (5, 7))
    garbage = base.copy()
    garbage[mask == 0] = rng.uniform(-1e6, 1e6, int((mask == 0).sum()))
    a = MaskedMatrix(base, mask)
    b = MaskedMatrix(garbage, mask)
    pair = FactorPair(rng.uniform(0, 1, (5, 3)), rng.uniform(0, 1, (3, 7)))
    assert weighted_fit(a, pair) == weighted_fit(b, pair)
    assert np.array_equal(fit_gradient(a, pair.gains, pair.activations),
                          fit_gradient(b, pair.gains, pair.activations))
    assert np.array_equal(a.values, b.values)


def test_window_slices_columns():
    rng = np.random.default_rng(5)
    mask = (rng.random((3, 10)) < 0.7).astype(float)
    m = MaskedMatrix(rng.uniform(0, 1, (3, 10)), mask)
    w = m.window(2, 6)
    assert w.shape == (3, 4)
    assert np.array_equal(w.values, m.values[:, 2:6])


def test_masked_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    mask = (rng.random((4, 5)) < 0.5).astype(float)
    m = MaskedMatrix(rng.uniform(0, 1e-7, (4, 5)), mask)
    path = tmp_path / "observed.csv"
    save_masked_csv(m, path)
    back = load_masked_csv(path)
    assert np.array_equal(back.values, m.values)
    assert np.array_equal(back.mask, m.mask)
    header = path.read_text().splitlines()[0]
    assert header == "r,t,value,observed"


def test_dense_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    a = rng.uniform(0, 1, (3, 4)) * np.array([1e-9, 1.0, 1e6, 123.456])
    path = tmp_path / "dense.csv"
    save_dense_csv(a, path)
    assert np.array_equal(load_dense_csv(path), a)


@pytest.mark.parametrize("text, message", [
    ("1,2,3\n4,5\n", r"line 2 has 2 fields, expected 3"),
    ("1,2\n\n3,4\n5,6,7\n", r"line 4 has 3 fields, expected 2"),
    ("1,2\n3,abc\n", r"line 2: could not convert string to float: 'abc'"),
])
def test_dense_csv_ragged_rows_are_rejected(tmp_path, text, message):
    path = tmp_path / "dense.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_dense_csv(path)


def _saved_lines(tmp_path):
    m = MaskedMatrix(np.arange(12.0).reshape(3, 4), np.ones((3, 4)))
    path = tmp_path / "observed.csv"
    save_masked_csv(m, path)
    return path, path.read_text().splitlines()


def test_masked_csv_truncated_grid_is_rejected(tmp_path):
    path, lines = _saved_lines(tmp_path)
    path.write_text("\n".join(lines[:8]) + "\n")  # header + 7 of 12 cells
    with pytest.raises(ValueError, match=r"2x4 grid: missing cell \(r=1, t=3\)"):
        load_masked_csv(path)


def test_masked_csv_duplicate_cell_is_rejected(tmp_path):
    path, lines = _saved_lines(tmp_path)
    path.write_text("\n".join(lines + [lines[7]]) + "\n")  # cell (1, 2) twice
    with pytest.raises(ValueError, match=r"duplicate cell \(r=1, t=2\)"):
        load_masked_csv(path)


@pytest.mark.parametrize("bad_line, message", [
    ("0,1,0.5", r"line 3: not enough values"),
    ("0,x,0.5,1", r"line 3: invalid literal"),
    ("-1,1,0.5,1", r"negative cell \(r=-1, t=1\)"),
    # numpy's reader would take \x1c for white space and "\u01fe" for 462.
    ("0,1,0.5,\x1c1", r"line 3: could not convert string to float"),
    ("0,\u01fe,0.5,1", r"line 3: invalid literal"),
])
def test_masked_csv_malformed_record_is_rejected(tmp_path, bad_line, message):
    path, lines = _saved_lines(tmp_path)
    lines[2] = bad_line
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_masked_csv(path)


@pytest.mark.parametrize("bad_line, message", [
    ("1000000000000,0,0.5,1", r"1000000000001x4 grid: missing cell \(r=0, t=1\)"),
    ("0,9223372036854775807,0.5,1", r"missing cell \(r=0, t=1\)"),
    ("0,9223372036854775808,0.5,1", r"line 3: .*too large"),
])
def test_masked_csv_huge_index_is_rejected_without_allocating(tmp_path, bad_line, message):
    # A grid sized by the largest index would need terabytes.
    path, lines = _saved_lines(tmp_path)
    lines[2] = bad_line
    path.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        load_masked_csv(path)
    assert time.perf_counter() - start < 1.0


# Cell (0, 1) written as int() and float() read it. numpy's reader takes the
# first two cases itself; a quoted field, "1_0" and a non-ASCII digit go
# through csv.reader and int()/float().
@pytest.mark.parametrize("line, value", [
    ("+0,+1,+3,1", 3.0),
    (" 0 , 1 , 0.5 , 1 ", 0.5),
    ('"0","1","0.5","1"', 0.5),
    ("0,1,1_0,1", 10.0),
    ("0,\u0661,2.5,1", 2.5),
])
def test_masked_csv_reads_cells_as_int_and_float_do(tmp_path, line, value):
    path, lines = _saved_lines(tmp_path)
    lines[2] = line
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want = np.arange(12.0).reshape(3, 4)
    want[0, 1] = value
    back = load_masked_csv(path)
    assert np.array_equal(back.values, want) and back.mask.all()


@pytest.mark.parametrize("quoted", [False, True])
def test_masked_csv_blank_lines_are_skipped(tmp_path, quoted):
    path, lines = _saved_lines(tmp_path)
    if quoted:  # read through csv.reader instead of numpy's reader
        lines[5] = '"1",0,4.0,1'
    text = "\n".join(lines[:3] + [""] + lines[3:9] + ["", ""] + lines[9:]) + "\n\r\n"
    path.write_bytes(text.encode())
    back = load_masked_csv(path)
    assert np.array_equal(back.values, np.arange(12.0).reshape(3, 4)) and back.mask.all()


@pytest.mark.parametrize("load, text, message", [
    (load_masked_csv, "r,t,value,observed\n", "empty masked-matrix file"),
    (load_masked_csv, "r,t,value,observed\n\n\r\n", "empty masked-matrix file"),
    (load_dense_csv, "", "empty dense-matrix file"),
    (load_dense_csv, "\n\n", "empty dense-matrix file"),
])
def test_csv_without_records_is_named_error_without_warning(tmp_path, load, text, message):
    path = tmp_path / "empty.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            load(path)


@pytest.mark.parametrize("observed", [0.0, 1.0])
def test_masked_csv_one_cell_grid_round_trips(tmp_path, observed):
    m = MaskedMatrix([[0.25]], [[observed]])
    path = tmp_path / "observed.csv"
    save_masked_csv(m, path)
    back = load_masked_csv(path)
    assert np.array_equal(back.values, m.values) and np.array_equal(back.mask, m.mask)


def _load_both_ways(monkeypatch, load, path):
    """load(path) through numpy's reader, then through csv.reader: (array or
    (error type, message)) for each."""
    results = []
    for plain in (True, False):
        if not plain:
            monkeypatch.setattr(matrices, "_plain_text", lambda path: False)
        try:
            got = load(path)
        except ValueError as exc:
            results.append((type(exc), str(exc)))
        else:
            arrays = (got.values, got.mask) if isinstance(got, MaskedMatrix) else (got,)
            results.append([(a.shape, a.tobytes()) for a in arrays])
    return results


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("load, text", [
    (load_masked_csv, "r,t,value,observed|0,0,0.5,1|0,1,2.0,0|1,0,3.0,1|1,1,4.5,1|"),
    (load_masked_csv, '"r","t","value","observed"||0,0,0.5,1|0,1,2.0,0||1,0,3.0,1|1,1,4.5,1||'),
    (load_masked_csv, "r,t,value,observed|0,0,0.5,1|0,1,2.0,0|1,1,4.5,1"),
    (load_masked_csv, "r,t,value|0,0,0.5,1|"),
    (load_dense_csv, "0.5,2.0|3.0,4.5|"),
    (load_dense_csv, "|0.5,2.0||3.0,4.5||"),
    (load_dense_csv, "0.5,2.0|3.0|"),
])
def test_csv_line_ends_read_alike_on_both_paths(tmp_path, monkeypatch, end, load, text):
    path = tmp_path / "file.csv"
    path.write_bytes(text.replace("|", end).encode())
    by_numpy, by_csv = _load_both_ways(monkeypatch, load, path)
    assert by_numpy == by_csv


def _shuffled(lines, seed):
    records = lines[1:]
    order = np.random.default_rng(seed).permutation(len(records))
    return [lines[0]] + [records[i] for i in order]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_masked_csv_shuffled_records_load_as_sorted(tmp_path, seed):
    rng = np.random.default_rng(seed)
    m = MaskedMatrix(rng.uniform(0, 1, (6, 9)), (rng.random((6, 9)) < 0.6).astype(float))
    path = tmp_path / "observed.csv"
    save_masked_csv(m, path)
    want = load_masked_csv(path)
    path.write_text("\n".join(_shuffled(path.read_text().splitlines(), seed)) + "\n")
    got = load_masked_csv(path)
    assert got.values.tobytes() == want.values.tobytes() == m.values.tobytes()
    assert got.mask.tobytes() == want.mask.tobytes() == m.mask.tobytes()


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines + [lines[7]], r"3x4 grid: duplicate cell \(r=1, t=2\)"),
    (lambda lines: lines[:7] + lines[8:], r"3x4 grid: missing cell \(r=1, t=2\)"),
])
def test_masked_csv_shuffled_grid_errors_name_the_sorted_cell(tmp_path, edit, message):
    path, lines = _saved_lines(tmp_path)
    for seed in range(3):
        path.write_text("\n".join(_shuffled(edit(lines), seed)) + "\n")
        with pytest.raises(ValueError, match=message):
            load_masked_csv(path)
