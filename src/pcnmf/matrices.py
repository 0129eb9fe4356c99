"""Masked measurement matrices and nonnegative factor pairs.

The measurement matrix holds received powers for N_R sensors over T time
slots together with a binary availability mask. Missing entries are stored
as 0 internally so they can never leak into downstream arithmetic; every
operation multiplies by the mask before the data is used. Factor pairs hold
the nonnegative (gains, activations) state of a factorization. Every matrix
argument of the package goes through matrix (2-D, of a given shape), finite
or nonnegative, each built on the one before, so each kind of bad argument
raises one message, whichever function was given it.

Every CSV file pcnmf writes goes through write_csv, fed a row of text at a
time, and the two matrix loaders share one parse: numpy's C reader, with
csv.reader and int()/float() behind it to name a bad line.
"""

from __future__ import annotations

import csv
import json
import re
import warnings
from dataclasses import dataclass

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when matrix dimensions are incompatible."""


def matrix(a, name: str, copy: bool = False, shape=None) -> np.ndarray:
    """a as a 2-D float64 array; ShapeMismatchError naming it unless a is 2-D and fits shape.

    shape is None or (rows, cols), where a str such as "K" fits any length.
    The array is a copy when copy is set, else a itself wherever it is one.
    """
    arr = np.array(a, dtype=np.float64, copy=True) if copy else np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    if shape is not None and any(not isinstance(want, str) and want != got
                                 for want, got in zip(shape, arr.shape)):
        raise ShapeMismatchError(f"{name} shape {arr.shape} does not match "
                                 f"{shape[0]} x {shape[1]}")
    return arr


def finite(a, name: str, copy: bool = False, shape=None) -> np.ndarray:
    """matrix(a, name, copy, shape), and ValueError naming it unless every entry is finite."""
    arr = matrix(a, name, copy, shape)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def nonnegative(a, name: str, copy: bool = False, shape=None) -> np.ndarray:
    """finite(a, name, copy, shape), and ValueError naming it unless every entry is >= 0."""
    arr = finite(a, name, copy, shape)
    if (arr < 0).any():
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class MaskedMatrix:
    """Measurement matrix S with binary availability mask W.

    values : (n_rows, n_cols) received powers, linear scale. Entries at
        mask == 0 are normalized to 0 on construction, whatever the caller
        passed, so missing placeholders cannot influence any computation.
    mask : (n_rows, n_cols) with entries exactly 0.0 or 1.0.

    Instances are immutable value types (arrays are write-protected) and
    safe to share read-only across threads.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = matrix(self.values, "values")
        mask = matrix(self.mask, "mask", copy=True, shape=values.shape)
        observed = mask == 1.0
        if not (observed | (mask == 0.0)).all():
            raise ValueError("mask entries must be exactly 0 or 1")
        # One new array, with +0.0 at missing entries: the caller's
        # placeholder is never read, and the caller's array never written.
        values = nonnegative(np.where(observed, values, 0.0), "observed entries")
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "mask", _frozen(mask))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def window(self, start: int, stop: int) -> "MaskedMatrix":
        """Column slice [start, stop) as a new MaskedMatrix."""
        return MaskedMatrix(self.values[:, start:stop], self.mask[:, start:stop])


@dataclass(frozen=True)
class FactorPair:
    """Nonnegative factorization state: gains (N_R x K) and activations (K x T)."""

    gains: np.ndarray
    activations: np.ndarray

    def __post_init__(self):
        gains = nonnegative(self.gains, "gains", copy=True)
        activations = nonnegative(self.activations, "activations", copy=True,
                                  shape=(gains.shape[1], "T"))
        object.__setattr__(self, "gains", _frozen(gains))
        object.__setattr__(self, "activations", _frozen(activations))

    @property
    def rank(self) -> int:
        return self.gains.shape[1]


# The characters for which csv.writer would quote a cell.
_QUOTE_TRIGGERS = re.compile(r'[,"\r\n]')


def csv_line(cells) -> str:
    """Text cells joined by "," into one CSV line, with its "\n" line end.

    No cell is ever quoted: one holding ",", '"', CR or LF raises ValueError
    naming it, rather than writing a line that reads back as other cells.
    """
    for cell in cells:
        if _QUOTE_TRIGGERS.search(cell):
            raise ValueError(f"CSV cell {cell!r} would need quoting; "
                             f"pcnmf writes unquoted cells only")
    return ",".join(cells) + "\n"


def write_csv(path, header, blocks) -> None:
    """Write a CSV file: a header line, then blocks of text, with "\n" line ends.

    header is the first line's text cells (see csv_line), or None for a file
    without a header. blocks is an iterable of text, each block one or more
    whole lines that end in "\n", such as one matrix or table row; they are
    written as they come, and no newline in them is translated. Callers
    write each float as its repr, the shortest decimal that reads back to
    the same value, and quote no cell.
    """
    head = "" if header is None else csv_line(header)
    with open(path, "w", newline="") as fh:
        fh.write(head)
        fh.writelines(blocks)


def write_json(path, obj) -> None:
    """Write obj as JSON with sorted keys, indent 2 and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_masked_csv(s: MaskedMatrix, path) -> None:
    """Write a MaskedMatrix as long-format CSV with header r,t,value,observed.

    Each sensor row is one text block: a line per slot t holding r, t, the
    value's repr and observed as 0 or 1.
    """
    slots = [f"{t}," for t in range(s.n_cols)]
    write_csv(path, ["r", "t", "value", "observed"], (
        "".join([f"{r},{slot}{v!r},{w}\n"
                 for slot, v, w in zip(slots, values.tolist(), mask.astype(int).tolist())])
        for r, (values, mask) in enumerate(zip(s.values, s.mask))
    ))


# The bytes that numpy's reader and int()/float() read alike: printable ASCII
# and \t\n\v\f\r. numpy also takes \x1c-\x1f for white space, and reads some
# non-ASCII letters as digits ("\u01fe" as 462).
_PLAIN_BYTES = bytes(range(9, 14)) + bytes(range(32, 127))


def _plain_text(path) -> bool:
    with open(path, "rb") as fh:
        return not any(chunk.translate(None, _PLAIN_BYTES)
                       for chunk in iter(lambda: fh.read(1 << 20), b""))


def _read_csv(path, header, dtype, ndmin: int, parse_records):
    """The records of a CSV file after its header, as an array of dtype.

    header is the first row as csv.reader splits it, or None for a file
    without one; any other first row raises ValueError. numpy's C reader
    then parses the file from its path, in blocks, skipping the header's
    line and blank lines. If it fails, or the file holds a byte it may read
    differently, parse_records(reader) parses the file again through
    csv.reader with int()/float(): it raises ValueError naming the first bad
    line, or returns the array for a file only it reads (a quoted field,
    "1_0"). numpy and float() read every decimal to the same double, and
    both split lines at CR, LF and CRLF, so both paths accept the same files
    and return the same values.
    """
    if header is not None:
        with open(path, newline="") as fh:
            first = next(csv.reader(fh), None)
        if first != header:
            raise ValueError(f"unexpected header {first!r}")
    if _plain_text(path):
        try:
            with warnings.catch_warnings():
                # A file without records is the caller's named error.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                # A header that matched holds no line end: it is line one.
                return np.loadtxt(path, dtype=dtype, delimiter=",", comments=None,
                                  skiprows=int(header is not None), ndmin=ndmin)
        except (ValueError, OverflowError):
            pass
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if header is not None:
            next(reader)
        return parse_records(reader)


# One long-format masked-matrix record, as written by save_masked_csv.
_CELL = np.dtype([("r", np.int64), ("t", np.int64),
                  ("value", np.float64), ("observed", np.float64)])


def _masked_records(reader) -> np.ndarray:
    try:
        return np.fromiter(((int(r), int(t), float(v), float(w))
                            for r, t, v, w in filter(None, reader)), dtype=_CELL)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from exc


def load_masked_csv(path) -> MaskedMatrix:
    """Read a MaskedMatrix written by save_masked_csv.

    Blank lines are skipped. A record that does not parse raises ValueError
    naming its line. The file must hold every (r, t) cell of its grid exactly
    once; a missing, duplicate or negative cell raises ValueError naming it.
    """
    table = _read_csv(path, ["r", "t", "value", "observed"], _CELL, 1, _masked_records)
    if not table.size:
        raise ValueError("empty masked-matrix file")
    r, t = table["r"], table["t"]
    negative = np.flatnonzero((r < 0) | (t < 0))
    if negative.size:
        i = negative[0]
        raise ValueError(f"negative cell (r={r[i]}, t={t[i]})")
    n_rows, n_cols = int(r.max()) + 1, int(t.max()) + 1
    # Sorted by (r, t), a complete grid is its own cell sequence: the first
    # record off it names the first bad cell, and no grid-sized array is
    # allocated however large an index the file gives. Below table.size,
    # dividing by min(n_cols, table.size) gives the same cells and fits int64.
    # save_masked_csv writes in that order; the stable sort would leave such
    # a file as it is, so it is skipped.
    if not ((r[1:] > r[:-1]) | ((r[1:] == r[:-1]) & (t[1:] >= t[:-1]))).all():
        table = table[np.lexsort((t, r))]
        r, t = table["r"], table["t"]
    cell, width = np.arange(table.size), min(n_cols, table.size)
    off = np.flatnonzero((r != cell // width) | (t != cell % width))
    i = int(off[0]) if off.size else table.size
    if i < table.size or table.size < n_rows * n_cols:
        # Record i either repeats cell i - 1, the last one matched, or skips cell i.
        kind, bad = "missing", i
        if 0 < i < table.size and (r[i], t[i]) == divmod(i - 1, n_cols):
            kind, bad = "duplicate", i - 1
        bad_r, bad_t = divmod(bad, n_cols)
        raise ValueError(
            f"incomplete {n_rows}x{n_cols} grid: {kind} cell (r={bad_r}, t={bad_t})"
        )
    return MaskedMatrix(table["value"].reshape(n_rows, n_cols),
                        table["observed"].reshape(n_rows, n_cols))


def save_dense_csv(a: np.ndarray, path) -> None:
    """Write the dense matrix a as plain CSV (no header), one line of reprs per row."""
    write_csv(path, None, (",".join(map(repr, row.tolist())) + "\n"
                           for row in matrix(a, "matrix")))


def _dense_rows(reader) -> np.ndarray:
    try:
        rows = [(reader.line_num, [float(v) for v in rec]) for rec in reader if rec]
    except ValueError as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from exc
    width = len(rows[0][1]) if rows else 0
    for line, row in rows:
        if len(row) != width:
            raise ValueError(f"ragged dense-matrix file: line {line} has "
                             f"{len(row)} fields, expected {width}")
    return np.array([row for _, row in rows], dtype=np.float64)


def load_dense_csv(path) -> np.ndarray:
    """Read a dense matrix written by save_dense_csv.

    Blank lines are skipped; a cell that is not a number, or a row whose
    field count differs from the first row's, raises ValueError naming its
    line.
    """
    arr = _read_csv(path, None, np.float64, 2, _dense_rows)
    if not arr.size:
        raise ValueError("empty dense-matrix file")
    return arr
