"""Evaluation statistics: relative errors, empirical CDFs, binned summaries.

Quartiles use linear interpolation between closest ranks (position
``(count - 1) * q`` in the sorted sample), pinned here so exported numbers
are reproducible across implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FactorPair
from .loss import product_at_entries


class DenominatorTooSmallError(ValueError):
    """A truth entry used as a relative-error denominator is below the floor."""


@dataclass(frozen=True)
class ErrorSummary:
    """Sorted error sample with median, quartiles and interquartile range."""

    values: np.ndarray
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

    @property
    def num_bins(self) -> int:
        return self.boundaries.size - 1


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


def _eval_indices(eval_set) -> tuple[np.ndarray, np.ndarray]:
    idx = np.asarray(eval_set, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[1] != 2:
        raise ValueError("eval_set must be a sequence of (i, j) pairs")
    return idx[:, 0], idx[:, 1]


def relative_errors(truth, estimate: FactorPair, eval_set, floor: float = 1e-12) -> np.ndarray:
    """|truth_ij - estimate_ij| / |truth_ij| over eval_set, in order.

    Raises if any |truth_ij| is below the floor: silently skipping
    near-zero denominators would bias downstream CDFs.
    """
    truth = np.asarray(truth, dtype=np.float64)
    rows, cols = _eval_indices(eval_set)
    denom = truth[rows, cols]
    bad = np.nonzero(np.abs(denom) < floor)[0]
    if bad.size:
        t = bad[0]
        raise DenominatorTooSmallError(
            f"truth entry ({rows[t]}, {cols[t]}) = {denom[t]!r} is below the floor {floor!r}"
        )
    pred = product_at_entries(estimate, rows, cols)
    return np.abs(denom - pred) / np.abs(denom)


def empirical_cdf(values, grid) -> np.ndarray:
    """Fraction of values <= g for each grid point g."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        raise ValueError("empirical_cdf needs a non-empty sample")
    g = np.asarray(grid, dtype=np.float64)
    return np.searchsorted(v, g, side="right") / v.size


def summarize(values) -> ErrorSummary:
    """Five-number-style summary (q1, median, q3) of an error sample."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        raise ValueError("summarize needs a non-empty sample")
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0], method="linear")
    return ErrorSummary(
        values=v,
        median=float(med),
        q1=float(q1),
        q3=float(q3),
        iqr=float(q3 - q1),
        count=v.size,
    )


def binned_summaries(
    truth, estimate: FactorPair, eval_set, bins: BinSpec, floor: float = 1e-12
) -> list[BinnedSummary]:
    """Per-bin summaries of relative errors, with entries bucketed by truth value.

    Returns one entry per bin plus a trailing overflow bucket for truth
    values outside [b0, b_last).
    """
    truth = np.asarray(truth, dtype=np.float64)
    rows, cols = _eval_indices(eval_set)
    errors = relative_errors(truth, estimate, eval_set, floor)
    ref = truth[rows, cols]
    b = bins.boundaries
    which = np.searchsorted(b, ref, side="right") - 1
    out = []
    for i in range(bins.num_bins):
        sel = errors[which == i]
        out.append(
            BinnedSummary(
                lower=float(b[i]),
                upper=float(b[i + 1]),
                count=sel.size,
                summary=summarize(sel) if sel.size else None,
            )
        )
    overflow = errors[(which < 0) | (which >= bins.num_bins)]
    out.append(
        BinnedSummary(
            lower=None,
            upper=None,
            count=overflow.size,
            summary=summarize(overflow) if overflow.size else None,
        )
    )
    return out
