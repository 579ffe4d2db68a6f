"""File formats: matrix and value loaders, and the result writers.

Dense text: whitespace-separated reals, one matrix row per line, a
configurable sentinel (default -1.0) marking missing entries.  Triplet
text: header line ``m n`` followed by ``i j value`` lines (0-based).  Rows
end at newlines only, so a form feed or vertical tab is whitespace inside
a row.  Each reader parses the open file in one ``np.loadtxt`` call; only
a file that call refuses, or one with a non-finite value, is read again
token by token, to name the line (and column) of its error.
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
from array import array
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


def _loadtxt(fh, **kwargs):
    """One np.loadtxt call on the open file (not a path it would decompress
    or fetch), or None where it fails.  Its warning on a file without data,
    and older numpy's on an integer read via a float (2.1 as 2), count as
    failures."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(fh, comments=None, **kwargs)
    except (ValueError, UserWarning, DeprecationWarning):
        return None


def _scan(fh):
    """(line number, tokens) of the non-blank lines of the open file fh, from
    where it stands; line numbers count from there."""
    return ((no, ln.split()) for no, ln in enumerate(fh, start=1) if ln.strip())


def _read_reals(path, flat: bool) -> np.ndarray:
    """The reals of a dense file, one row per line; with flat, the reals of
    lines of any length, in reading order."""
    with open(path) as fh:
        data = _loadtxt(fh, ndmin=2)
        if data is None or not np.isfinite(data).all():
            fh.seek(0)
            width, values = 0, array("d")
            for no, tokens in _scan(fh):
                width = width or len(tokens)  # the first line's
                if not flat and len(tokens) != width:
                    raise RaggedRowsError(f"{path}: line {no} has {len(tokens)} values, expected {width}")
                values.extend(_parse_real(tok, no, col) for col, tok in enumerate(tokens, start=1))
            if not values:
                raise EmptyFileError(f"{path}: no data lines")
            data = np.frombuffer(values).reshape(-1, 1 if flat else width)
    return data.ravel() if flat else data


def read_dense(path) -> np.ndarray:
    """Read a dense matrix file, every entry a finite real."""
    return _read_reals(path, flat=False)


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

    Read as :func:`read_dense` reads, it refuses what :func:`load_dense`
    refuses but ragged rows, naming a bad token's line and column.
    """
    values = _read_reals(path, flat=True)
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

    The header is read from the open file, which then goes to np.loadtxt.
    """
    with open(path) as fh:
        header_no, header = next(_scan(fh), (0, None))
        if header is None:
            raise EmptyFileError(f"{path}: no data lines")
        try:
            m, n = map(int, header)  # a header of another length fails to unpack
        except ValueError:
            raise MatrixParseError(f"line {header_no}: header must be 'm n', got {header!r}") from None
        data = _loadtxt(fh, ndmin=1, dtype=[("i", np.int64), ("j", np.int64), ("v", np.float64)])
        if data is not None and np.isfinite(data["v"]).all():
            return EntryObservations((m, n), data["i"], data["j"], data["v"])
        fh.seek(0)
        lines = _scan(fh)
        next(lines)  # the header, read above
        rows, cols, vals = array("q"), array("q"), array("d")
        for no, tokens in lines:
            if len(tokens) != 3:
                raise MatrixParseError(f"line {no}: expected 'i j value', got {len(tokens)} tokens")
            try:
                rows.append(int(tokens[0]))
                cols.append(int(tokens[1]))
            except ValueError:
                raise MatrixParseError(f"line {no}: indices must be integers") from None
            except OverflowError:  # beyond int64, so beyond any shape
                raise MatrixParseError(f"line {no}: index out of range") from None
            vals.append(_parse_real(tokens[2], no, 3))
    if not vals:
        raise EmptyObservationsError(f"{path}: header only, no observations")
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
    header, *lines = Path(path).read_text().rstrip("\n").split("\n")
    if header != _CSV_HEADER:
        raise MatrixParseError(f"{path}: missing results header")
    out = []
    names = _CSV_HEADER.split(",")
    for ln in lines:
        parts = ln.split(",")
        row = dict(zip(names, parts))
        row["value"] = float(row["value"])
        out.append(row)
    return out
