"""File formats: matrix and value loaders, and the result writers.

Dense text: whitespace-separated reals, one matrix row per line, a
configurable sentinel (default -1.0) marking missing entries.  Triplet
text: header line ``m n`` followed by ``i j value`` lines (0-based).
Results go to CSV with schema ``run_id,omega,rank,sampling_rate,seed,
metric,bin,value`` (one row per scalar) or to a JSON mirror; the error CDF
is a two-column ``grid,fraction`` CSV.  The caller builds the rows; this
module only formats them, every number as its shortest round-trip decimal,
so identical runs export byte-identical files.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

from .core import EntryObservations


class MatrixParseError(ValueError):
    """Unparseable or non-finite token, with 1-based line/column location."""


class RaggedRowsError(ValueError):
    """Dense matrix file with unequal row lengths."""


class EmptyFileError(ValueError):
    """File contains no data lines."""


class EmptyObservationsError(ValueError):
    """Every entry of the file is the missing sentinel."""


class SentinelCollisionError(ValueError):
    """The missing sentinel lies inside the range of observed values."""


def _parse_real(token: str, lineno: int, col: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MatrixParseError(
            f"line {lineno}, column {col}: cannot parse {token!r} as a real number"
        ) from None
    if not math.isfinite(value):
        raise MatrixParseError(f"line {lineno}, column {col}: non-finite value {token!r}")
    return value


def read_dense(path) -> np.ndarray:
    """Read a dense matrix file, every entry a finite real.

    Parsed from the file in one vectorized call; only when that fails, finds
    no data or reads a non-finite value is the text read and parsed token by
    token, to locate the error.
    """
    try:
        # the open file, not a path np.loadtxt would decompress or fetch; its
        # warning on a file without data is raised, for the token loop to refuse
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            data = np.loadtxt(fh, comments=None, ndmin=2)
    except (ValueError, UserWarning):
        data = None
    if data is None or not np.isfinite(data).all():
        # rows end at newlines only, as in np.loadtxt: \f and \v are whitespace
        lines = Path(path).read_text().split("\n")
        numbered = [(no, ln.split()) for no, ln in enumerate(lines, start=1) if ln.strip()]
        if not numbered:
            raise EmptyFileError(f"{path}: no data lines")
        width = len(numbered[0][1])
        data = np.empty((len(numbered), width))
        for out_row, (no, tokens) in enumerate(numbered):
            if len(tokens) != width:
                raise RaggedRowsError(
                    f"{path}: line {no} has {len(tokens)} values, expected {width}"
                )
            for c, tok in enumerate(tokens):
                data[out_row, c] = _parse_real(tok, no, c + 1)
    return data


def load_dense(path, sentinel: float = -1.0) -> EntryObservations:
    """The observation set of the non-sentinel entries of a :func:`read_dense` file."""
    data = read_dense(path)
    keep = data != sentinel
    values = data[keep]  # row-major, the order of np.nonzero
    _check_observed(path, values, sentinel)
    rows, cols = np.nonzero(keep)
    return EntryObservations(data.shape, rows, cols, values)


def load_values(path, sentinel: float = -1.0) -> np.ndarray:
    """The non-sentinel reals of a file, any number per line, in reading order.

    Refuses what :func:`load_dense` refuses, naming a bad token's line and column.
    """
    lines = Path(path).read_text().splitlines()
    values = np.array([_parse_real(tok, no, col)
                       for no, line in enumerate(lines, start=1)
                       for col, tok in enumerate(line.split(), start=1)])
    if not values.size:
        raise EmptyFileError(f"{path}: no data lines")
    values = values[values != sentinel]
    _check_observed(path, values, sentinel)
    return values


def _check_observed(path, values, sentinel) -> None:
    """Raise unless there are observed values and the sentinel is outside their range."""
    if not values.size:
        raise EmptyObservationsError(f"{path}: every entry equals the sentinel {sentinel!r}")
    lo, hi = float(values.min()), float(values.max())
    if lo <= sentinel <= hi:
        raise SentinelCollisionError(
            f"{path}: sentinel {sentinel!r} lies inside the observed value range [{lo!r}, {hi!r}]"
        )


def write_dense(path, matrix, mask=None, sentinel: float = -1.0) -> None:
    """Write a dense matrix, the sentinel where mask is False; refuses what load_dense would."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if mask is not None:
        matrix = np.where(mask, matrix, float(sentinel))
    finite = np.isfinite(matrix)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"{path}: non-finite value {float(matrix[i, j])!r} at ({i}, {j})")
    if mask is not None:
        _check_observed(path, matrix[np.asarray(mask, dtype=bool)], sentinel)
    Path(path).write_text("\n".join(" ".join(map(repr, row)) for row in matrix.tolist()) + "\n")


def load_triplets(path) -> EntryObservations:
    """Read ``m n`` header plus ``i j value`` lines into an observation set.

    The lines after the header are parsed in one vectorized call; only when
    that fails or reads a non-finite value are they parsed line by line.
    """
    text = Path(path).read_text().splitlines()
    lines = ((no, ln.split()) for no, ln in enumerate(text, start=1) if ln.strip())
    header_no, header = next(lines, (0, None))
    if header is None:
        raise EmptyFileError(f"{path}: no data lines")
    try:
        m, n = map(int, header)  # a header of another length fails to unpack
    except ValueError:
        raise MatrixParseError(f"line {header_no}: header must be 'm n', got {header!r}") from None
    if not any(map(str.strip, text[header_no:])):
        raise EmptyObservationsError(f"{path}: header only, no observations")
    try:
        # older numpy reads an index such as 2.1 as 2 with only a
        # DeprecationWarning; raised, it sends the file to the line loop
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            data = np.loadtxt(text[header_no:], comments=None, ndmin=1,
                              dtype=[("i", np.int64), ("j", np.int64), ("v", np.float64)])
    except (ValueError, DeprecationWarning):
        data = None
    if data is not None and np.isfinite(data["v"]).all():
        return EntryObservations((m, n), data["i"], data["j"], data["v"])
    rows, cols, vals = [], [], []
    for no, tokens in lines:
        if len(tokens) != 3:
            raise MatrixParseError(f"line {no}: expected 'i j value', got {len(tokens)} tokens")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise MatrixParseError(f"line {no}: indices must be integers") from None
        rows.append(i)
        cols.append(j)
        vals.append(_parse_real(tokens[2], no, 3))
    return EntryObservations((m, n), rows, cols, vals)


_CSV_HEADER = "run_id,omega,rank,sampling_rate,seed,metric,bin,value"


def _fmt(v) -> str:
    return repr(float(v))


def results_csv(runs) -> str:
    """The results CSV text of runs, each a pair of its echo columns
    (run_id, omega, rank, sampling_rate, seed) and its (metric, bin, value)
    rows: the header, then one line per row."""
    lines = [_CSV_HEADER]
    for (run_id, omega, rank, sampling_rate, seed), rows in runs:
        echo = f"{run_id},{_fmt(omega)},{rank},{_fmt(sampling_rate)},{seed}"
        lines += [f"{echo},{metric},{binlabel},{_fmt(value)}" for metric, binlabel, value in rows]
    return "\n".join(lines) + "\n"


def export_results(path, fmt: str, echo, rows, cdf) -> None:
    """Write one run: its (metric, bin, value) rows and its error CDF.

    echo holds the run's (run_id, omega, rank, sampling_rate, seed) columns
    and cdf a (grid, fraction) pair.  ``csv`` writes the rows at path and
    the CDF at ``<stem>.cdf.re.csv``; ``json`` writes one mirror file.
    Identical inputs produce identical bytes.
    """
    path = Path(path)
    grid, fraction = cdf
    if fmt == "csv":
        path.write_text(results_csv([(echo, rows)]))
        body = ["grid,fraction", *(f"{_fmt(g)},{_fmt(f)}" for g, f in zip(grid, fraction))]
        path.with_name(f"{path.stem}.cdf.re.csv").write_text("\n".join(body) + "\n")
        return
    run_id, omega, rank, sampling_rate, seed = echo
    doc = {
        "run_id": run_id,
        "omega": float(omega),
        "rank": int(rank),
        "sampling_rate": float(sampling_rate),
        "seed": int(seed),
        "metrics": [{"metric": metric, "bin": binlabel, "value": float(value)}
                    for metric, binlabel, value in rows],
        "cdf": {"re": {"grid": [float(g) for g in grid],
                       "fraction": [float(f) for f in fraction]}},
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_results_csv(path) -> list[dict]:
    """Parse an exported CSV back into row dicts (value as float)."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != _CSV_HEADER:
        raise MatrixParseError(f"{path}: missing results header")
    out = []
    names = _CSV_HEADER.split(",")
    for ln in lines[1:]:
        parts = ln.split(",")
        row = dict(zip(names, parts))
        row["value"] = float(row["value"])
        out.append(row)
    return out
