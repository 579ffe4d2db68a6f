"""Evaluation statistics: relative errors, empirical CDFs, binned summaries.

Quartiles use linear interpolation between closest ranks (position
``(count - 1) * q`` in the sorted sample), pinned here so exported numbers
are reproducible across implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FactorPair, _as_indices, _check_indices, product_at_entries


class DenominatorTooSmallError(ValueError):
    """A truth entry used as a relative-error denominator is zero, too small or below the floor."""


@dataclass(frozen=True)
class ErrorSummary:
    """Extremes, median, quartiles and interquartile range of an error sample."""

    minimum: float
    maximum: float
    median: float
    q1: float
    q3: float
    iqr: float
    count: int


@dataclass(frozen=True)
class BinSpec:
    """Half-open intervals [b0, b1), [b1, b2), ... from strictly increasing boundaries."""

    boundaries: np.ndarray

    def __post_init__(self):
        b = np.ascontiguousarray(self.boundaries, dtype=np.float64)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("need at least two boundaries")
        if not np.isfinite(b).all() or not (np.diff(b) > 0).all():
            raise ValueError("boundaries must be finite and strictly increasing")
        object.__setattr__(self, "boundaries", b)


@dataclass(frozen=True)
class BinnedSummary:
    """Per-bin error summary; summary is None for an empty bin.

    The overflow bucket (entries outside [b0, b_last)) carries
    lower = upper = None.
    """

    lower: float | None
    upper: float | None
    count: int
    summary: ErrorSummary | None


def relative_errors(truth, estimate: FactorPair, eval_set, floor: float = 1e-12) -> np.ndarray:
    """:func:`relative_errors_at` of the dense ``truth`` and the product of
    ``estimate`` at the (i, j) pairs of eval_set, in order."""
    idx = _as_indices(eval_set, "eval_set")
    if idx.ndim != 2 or idx.shape[1] != 2:
        raise ValueError("eval_set must be a sequence of (i, j) pairs")
    truth = np.asarray(truth, dtype=np.float64)
    rows, cols = idx[:, 0], idx[:, 1]
    _check_indices(rows, truth.shape[0], "row")
    _check_indices(cols, truth.shape[1], "column")
    estimate = product_at_entries(estimate, rows, cols)
    return relative_errors_at(rows, cols, truth[rows, cols], estimate, floor)


def relative_errors_at(rows, cols, truth, estimate, floor: float = 1e-12) -> np.ndarray:
    """|truth[t] - estimate[t]| / |truth[t]| for aligned values of the
    entries (rows[t], cols[t]); the indices only name an entry in the error.

    Raises if any |truth[t]| is below the floor, or zero at any floor, or
    so small that the entry's error overflows: silently skipping near-zero
    denominators would bias downstream CDFs.
    """
    truth = np.asarray(truth, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    finite = np.isfinite(estimate)
    # one new array; division rounds alike for either sign, so this is
    # |truth - estimate| / |truth| bit for bit.  A difference of finite
    # values past the float range is taken of their halves, exact there, and
    # its quotient doubled.  A bad entry is refused below
    with np.errstate(all="ignore"):
        err = np.subtract(truth, estimate)
        over = np.flatnonzero(np.isinf(err) & finite)
        err[over] = truth[over] / 2 - estimate[over] / 2
        np.abs(np.divide(err, truth, out=err), out=err)
        err[over] *= 2
    # the least positive float: at floor 0 a zero truth is still refused, and
    # a NaN truth fails the comparison
    bad = np.flatnonzero(~(np.abs(truth) >= max(floor, 5e-324)) | (err == np.inf) & finite)
    if bad.size:
        t = bad[0]
        why = (f"below the floor {float(floor)!r}" if not abs(truth[t]) >= floor
               else "zero" if truth[t] == 0 else f"too small for the estimate "
               f"{float(estimate[t])!r}: the relative error overflows")
        raise DenominatorTooSmallError(f"truth entry ({rows[t]}, {cols[t]}) = "
                                       f"{float(truth[t])!r} is {why}")
    return err


def empirical_cdf(values, grid) -> np.ndarray:
    """Fraction of values <= g for each grid point g."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        raise ValueError("empirical_cdf needs a non-empty sample")
    g = np.asarray(grid, dtype=np.float64)
    return np.searchsorted(v, g, side="right") / v.size


def summarize(values) -> ErrorSummary:
    """Five-number summary of an error sample, read without sorting it; like
    the ends of a sorted sample, the minimum skips NaN and the maximum does not."""
    return _summary(np.array(values, dtype=np.float64))  # a copy: the quartiles reorder it


def _summary(v: np.ndarray) -> ErrorSummary:
    """:func:`summarize` of the float64 array v, which it reorders."""
    if v.size == 0:
        raise ValueError("summarize needs a non-empty sample")
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0], method="linear", overwrite_input=True)
    return ErrorSummary(
        minimum=float(np.fmin.reduce(v)),  # the extremes do not depend on the order
        maximum=float(v.max()),
        median=float(med),
        q1=float(q1),
        q3=float(q3),
        iqr=float(q3 - q1),
        count=v.size,
    )


def binned_summaries(errors, values, bins: BinSpec) -> list[BinnedSummary]:
    """Per-bin summaries of an error sample, entries bucketed by their truth
    value (``values[i]`` belongs to ``errors[i]``).

    Returns one entry per bin plus a trailing overflow bucket for truth
    values outside [b0, b_last), NaN values included.
    """
    errors = np.asarray(errors, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if errors.shape != values.shape or errors.ndim != 1:
        raise ValueError("errors and values must be 1-D arrays of one length")
    b = bins.boundaries.tolist()
    out = []
    for lower, upper in [*zip(b[:-1], b[1:]), (None, None)]:
        sel = (~((values >= b[0]) & (values < b[-1])) if lower is None
               else (values >= lower) & (values < upper))
        part = errors[sel]  # a fresh copy, so its summary may reorder it
        out.append(BinnedSummary(lower, upper, part.size, _summary(part) if part.size else None))
    return out
