"""File formats: dense/triplet matrix loaders and result exporters.

Dense text: whitespace-separated reals, one matrix row per line, a
configurable sentinel (default -1.0) marking missing entries.  Triplet
text: header line ``m n`` followed by ``i j value`` lines (0-based).
Results go to CSV with schema ``run_id,omega,rank,sampling_rate,seed,
metric,bin,value`` (one row per scalar) or to a JSON mirror; CDF tables are
two-column ``grid,fraction`` CSVs.  All numbers are written as shortest
round-trip decimals, so identical runs export byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import EntryObservations, SolveReport


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


@dataclass(frozen=True)
class MatrixFileSpec:
    """How to read a matrix file: dense grid or triplet list."""

    format: str = "dense"
    missing_sentinel: float = -1.0

    def __post_init__(self):
        if self.format not in ("dense", "triplets"):
            raise ValueError(f"unknown format {self.format!r}")


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


def load_dense(
    path, spec: MatrixFileSpec = MatrixFileSpec()
) -> tuple[np.ndarray, EntryObservations]:
    """Read a dense matrix with sentinel-marked holes.

    Returns the raw matrix (sentinel left in place) and the observation set
    of all non-sentinel entries.
    """
    lines = [
        (no, ln.split())
        for no, ln in enumerate(Path(path).read_text().splitlines(), start=1)
        if ln.strip()
    ]
    if not lines:
        raise EmptyFileError(f"{path}: no data lines")
    width = len(lines[0][1])
    data = np.empty((len(lines), width))
    for out_row, (no, tokens) in enumerate(lines):
        if len(tokens) != width:
            raise RaggedRowsError(
                f"{path}: line {no} has {len(tokens)} values, expected {width}"
            )
        for c, tok in enumerate(tokens):
            data[out_row, c] = _parse_real(tok, no, c + 1)
    sentinel = spec.missing_sentinel
    keep = data != sentinel
    if not keep.any():
        raise EmptyObservationsError(f"{path}: every entry equals the sentinel {sentinel!r}")
    observed = data[keep]
    if observed.min() <= sentinel <= observed.max():
        raise SentinelCollisionError(
            f"{path}: sentinel {sentinel!r} lies inside the observed value range "
            f"[{observed.min()!r}, {observed.max()!r}]"
        )
    rows, cols = np.nonzero(keep)
    return data, EntryObservations(data.shape, rows, cols, data[rows, cols])


def write_dense(path, matrix, mask=None, sentinel: float = -1.0) -> None:
    """Write a dense matrix, replacing entries where mask is False by the sentinel."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if mask is None:
        mask = np.ones(matrix.shape, dtype=bool)
    out = []
    for i in range(matrix.shape[0]):
        out.append(
            " ".join(
                repr(float(matrix[i, j])) if mask[i, j] else repr(float(sentinel))
                for j in range(matrix.shape[1])
            )
        )
    Path(path).write_text("\n".join(out) + "\n")


def load_triplets(path) -> EntryObservations:
    """Read ``m n`` header plus ``i j value`` lines into an observation set."""
    lines = [
        (no, ln.split())
        for no, ln in enumerate(Path(path).read_text().splitlines(), start=1)
        if ln.strip()
    ]
    if not lines:
        raise EmptyFileError(f"{path}: no data lines")
    header_no, header = lines[0]
    if len(header) != 2:
        raise MatrixParseError(f"line {header_no}: header must be 'm n', got {header!r}")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixParseError(f"line {header_no}: header must be 'm n', got {header!r}") from None
    if len(lines) < 2:
        raise EmptyObservationsError(f"{path}: header only, no observations")
    rows, cols, vals = [], [], []
    for no, tokens in lines[1:]:
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


def write_triplets(path, obs: EntryObservations) -> None:
    out = [f"{obs.shape[0]} {obs.shape[1]}"]
    for i, j, v in zip(obs.row_idx, obs.col_idx, obs.values):
        out.append(f"{i} {j} {repr(float(v))}")
    Path(path).write_text("\n".join(out) + "\n")


_CSV_HEADER = "run_id,omega,rank,sampling_rate,seed,metric,bin,value"


def _fmt(v) -> str:
    return repr(float(v))


def export_results(
    report: SolveReport | None,
    summaries,
    cdf_tables,
    path,
    fmt: str = "csv",
    *,
    run_id: str,
    omega: float,
    rank: int,
    sampling_rate: float,
    seed: int,
) -> list[Path]:
    """Export one run: scalar metric rows, the objective trace, CDF tables.

    summaries is an iterable of (metric, bin_label, value) rows; cdf_tables
    maps a label to a (grid, fraction) pair.  Every row carries the config
    echo columns.  CSV mode writes the main table at `path` and one
    ``<stem>.cdf.<label>.csv`` per table; JSON mode writes a single mirror
    file.  Deterministic: identical inputs produce identical bytes.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown export format {fmt!r}")
    path = Path(path)
    rows = [(str(metric), str(binlabel), float(value)) for metric, binlabel, value in summaries]
    if report is not None:
        for t, v in enumerate(report.objective_trace):
            rows.append(("objective_trace", str(t), float(v)))
        rows.append(("converged", "", 1.0 if report.converged else 0.0))
        rows.append(("uncertified_solves", "", float(report.uncertified_solves)))
        rows.append(("outer_iterations", "", float(len(report.objective_trace) - 1)))
    cdf_tables = dict(cdf_tables or {})

    written = []
    if fmt == "csv":
        echo = f"{run_id},{_fmt(omega)},{rank},{_fmt(sampling_rate)},{seed}"
        lines = [_CSV_HEADER]
        lines += [f"{echo},{metric},{binlabel},{_fmt(value)}" for metric, binlabel, value in rows]
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
        for label in sorted(cdf_tables):
            grid, frac = cdf_tables[label]
            cdf_path = path.with_name(f"{path.stem}.cdf.{label}.csv")
            body = ["grid,fraction"]
            body += [f"{_fmt(g)},{_fmt(fv)}" for g, fv in zip(grid, frac)]
            cdf_path.write_text("\n".join(body) + "\n")
            written.append(cdf_path)
    else:
        doc = {
            "run_id": run_id,
            "omega": float(omega),
            "rank": int(rank),
            "sampling_rate": float(sampling_rate),
            "seed": int(seed),
            "metrics": [
                {"metric": metric, "bin": binlabel, "value": value}
                for metric, binlabel, value in rows
            ],
            "cdf": {
                label: {
                    "grid": [float(g) for g in cdf_tables[label][0]],
                    "fraction": [float(fv) for fv in cdf_tables[label][1]],
                }
                for label in sorted(cdf_tables)
            },
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


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
