"""Core containers: matrices, factor pairs, observation sets, solver config.

Dense matrices are plain float64 numpy arrays (row-major); :func:`as_matrix`
is the single validation gate.  Observation sets come in two flavors:
entry-level observations of individual matrix elements (the completion
case) and general linear measurements ``b_i = <A_i, M>``, whose A_i are
held as one (p, m, n) array.  Both answer :meth:`apply` (``<A_i, x y^T>``
per observation), which the sign pattern reads, and :meth:`adjoint`
(``sum_i c_i A_i``), which the initialization reads.  The solver reads an
entry set's column layout and a general set's :meth:`design` (the rows
``A_i^T x``); only general sets answer ``design``.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np
import scipy.sparse as sp


# Most columns one ColumnBucket holds (see EntryObservations.column_buckets).
BUCKET_COLUMNS = 256

# Entries per gather in product_at_entries: two 65536-by-k float64 blocks
# (10.5 MB at k = 10) bound its temporaries.
_PRODUCT_CHUNK = 65_536


class DuplicateEntryError(ValueError):
    """Two observations of the same matrix element (i, j)."""


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 C-contiguous array.

    Requires at least one row and one column and all entries finite.
    """
    a = np.ascontiguousarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class FactorPair:
    """Rank-k factorization (x: m-by-k, y: n-by-k) of the matrix x @ y.T."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", as_matrix(self.x, "x"))
        object.__setattr__(self, "y", as_matrix(self.y, "y"))
        if self.x.shape[1] != self.y.shape[1]:
            raise ValueError(
                f"factor ranks differ: x has {self.x.shape[1]} columns, "
                f"y has {self.y.shape[1]}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x.shape[0], self.y.shape[0])


def product_at_entries(f: FactorPair, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries of f.x @ f.y.T gathered at (rows, cols), no m-by-n product formed.

    Works through _PRODUCT_CHUNK entries at a time, so the gathered factor
    rows take a bounded amount of memory whatever the number of entries.
    """
    out = np.empty(len(rows))
    for start in range(0, out.size, _PRODUCT_CHUNK):
        part = slice(start, start + _PRODUCT_CHUNK)
        np.einsum("pk,pk->p", f.x[rows[part]], f.y[cols[part]], out=out[part])
    return out


def _transposed_view(obs, **fields):
    """obs as a set of the transposed matrix: its validated arrays, no constructor."""
    t = object.__new__(type(obs))
    t.__dict__.update(shape=obs.shape[::-1], values=obs.values, transposed=obs, **fields)
    return t


def _check_shape(shape) -> tuple[int, int]:
    """shape as two Python ints >= 1; numpy integers pass, other numbers do not."""
    try:
        m, n = operator.index(shape[0]), operator.index(shape[1])
    except TypeError:
        raise ValueError(f"shape must be two integers, got {shape!r}") from None
    if m < 1 or n < 1:
        raise ValueError(f"invalid shape {shape}")
    return m, n


def _as_indices(idx, name: str) -> np.ndarray:
    """idx as a contiguous int64 array; a non-empty idx of another dtype
    than an integer one (floats, bools) is refused, not truncated."""
    idx = np.asarray(idx)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"{name} must be integers, got dtype {idx.dtype}")
    return np.ascontiguousarray(idx, dtype=np.int64)


def _check_indices(idx: np.ndarray, bound: int, axis: str):
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        bad = idx[(idx < 0) | (idx >= bound)][0]
        raise ValueError(f"{axis} index {bad} out of range [0, {bound})")


@dataclass(frozen=True)
class ColumnBucket:
    """Columns padded to one width and their observations, one slot each.

    rows and values are (columns, width) arrays: the row index and value
    of each slot.  Padding slots have row -1 and value 0: gathered from a
    factor with a zero row appended, they are zero design rows.
    """

    cols: np.ndarray
    rows: np.ndarray
    values: np.ndarray


class EntryObservations:
    """Observed matrix entries (i, j, value) of an m-by-n matrix.

    Duplicate (i, j) pairs are rejected: the completion model has one
    observation per element.  Instances are immutable and safe to share.
    The per-column counts and the padded :attr:`column_buckets` layout the
    subproblem solver works on are built on first use and cached, so
    construction only validates.  :meth:`adjoint` stays sparse.
    """

    def __init__(self, shape: tuple[int, int], row_idx, col_idx, values):
        m, n = _check_shape(shape)
        rows = _as_indices(row_idx, "row_idx")
        cols = _as_indices(col_idx, "col_idx")
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if not (rows.ndim == cols.ndim == vals.ndim == 1):
            raise ValueError("row_idx, col_idx and values must be 1-D")
        if not (rows.size == cols.size == vals.size):
            raise ValueError("row_idx, col_idx and values must have equal length")
        if vals.size < 1:
            raise ValueError("need at least one observation")
        if not np.isfinite(vals).all():
            raise ValueError("observation values must be finite")
        _check_indices(rows, m, "row")
        _check_indices(cols, n, "column")
        flat = rows * n + cols
        # strictly increasing entries, such as np.nonzero's, cannot repeat
        if not (flat[1:] > flat[:-1]).all():
            uniq, counts = np.unique(flat, return_counts=True)
            if uniq.size != flat.size:
                dup = uniq[counts > 1][0]
                raise DuplicateEntryError(
                    f"duplicate observation of entry ({dup // n}, {dup % n})"
                )
        self.shape = (m, n)
        self.row_idx = rows
        self.col_idx = cols
        self.values = vals

    @property
    def size(self) -> int:
        return self.values.size

    @cached_property
    def col_counts(self) -> np.ndarray:
        """Number of observations in each column."""
        return np.bincount(self.col_idx, minlength=self.shape[1])

    @cached_property
    def column_buckets(self) -> tuple["ColumnBucket", ...]:
        """Observations grouped per column into zero-padded buckets.

        Columns are taken by (observation count, index).  A bucket holds
        the next run of at most ``BUCKET_COLUMNS`` of them, which bounds a
        solve's per-bucket temporaries, none with more than twice the count
        of the run's first, and is as wide as its last, widest column: so
        padding at most doubles the slot count, and empty columns (zero
        doubles to zero) fill width-0 buckets.  Each column's observations
        keep their original relative order.  Built on first use, then cached.
        """
        counts = self.col_counts
        # columns by (count, index), observations by column in that order
        col_order = np.argsort(counts, kind="stable")
        sorted_counts = counts[col_order]
        position = np.empty(col_order.size, dtype=np.int64)
        position[col_order] = np.arange(col_order.size)
        obs_pos = position[self.col_idx]
        order = np.argsort(obs_pos, kind="stable")
        obs_pos = obs_pos[order]
        bounds = np.concatenate([[0], np.cumsum(sorted_counts)])
        slot = np.arange(order.size) - bounds[obs_pos]
        buckets, lo = [], 0
        while lo < col_order.size:
            within_twice = np.searchsorted(sorted_counts, 2 * sorted_counts[lo], "right")
            hi = min(lo + BUCKET_COLUMNS, within_twice)
            span = slice(bounds[lo], bounds[hi])
            obs = order[span]
            at = (obs_pos[span] - lo, slot[span])
            shape = (hi - lo, sorted_counts[hi - 1])
            rows = np.full(shape, -1, dtype=np.int64)
            values = np.zeros(shape)
            rows[at] = self.row_idx[obs]
            values[at] = self.values[obs]
            buckets.append(ColumnBucket(col_order[lo:hi], rows, values))
            lo = hi
        return tuple(buckets)

    @cached_property
    def transposed(self) -> "EntryObservations":
        """The same observations viewed as entries of the transposed matrix.

        Observation order is preserved, so sign patterns and residual
        vectors line up between the two views.
        """
        return _transposed_view(self, row_idx=self.col_idx, col_idx=self.row_idx)

    def apply(self, f: FactorPair) -> np.ndarray:
        """The entries of f.x @ f.y.T at the observed cells, in observation order."""
        return product_at_entries(f, self.row_idx, self.col_idx)

    def adjoint(self, c) -> sp.csr_matrix:
        """Zero-filled sparse matrix sum_i c[i] * E_ij of the observed cells."""
        return sp.csr_matrix((c, (self.row_idx, self.col_idx)), shape=self.shape)


class GeneralObservations:
    """General linear measurements b_i = <A_i, M> of an m-by-n matrix.

    The measurement matrices are one (p, m, n) float64 array,
    ``measurements[i]`` = A_i.  A float64 ndarray of that shape is kept as
    given, uncopied; a sequence of matrices is stacked once, scipy sparse
    ones densified.
    """

    def __init__(self, shape: tuple[int, int], measurements, values):
        m, n = _check_shape(shape)
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("values must be a non-empty vector")
        if not np.isfinite(vals).all():
            raise ValueError("observation values must be finite")
        if not isinstance(measurements, np.ndarray):
            measurements = [a.toarray() if sp.issparse(a) else a for a in measurements]
        ops = np.asarray(measurements, dtype=np.float64)
        if ops.shape != (vals.size, m, n):
            raise ValueError(
                f"measurements have shape {ops.shape}, expected {(vals.size, m, n)}"
            )
        # one measurement at a time: no full-size temporary
        for idx, a in enumerate(ops):
            if not np.isfinite(a).all():
                raise ValueError(f"measurement {idx} contains non-finite entries")
        self.shape = (m, n)
        self.measurements = ops
        self.values = vals

    @property
    def size(self) -> int:
        return self.values.size

    @cached_property
    def transposed(self) -> "GeneralObservations":
        """The same measurements of the transposed matrix, A_i^T, as a view."""
        return _transposed_view(self, measurements=self.measurements.transpose(0, 2, 1))

    def apply(self, f: FactorPair) -> np.ndarray:
        """<A_i, f.x f.y^T> = <A_i f.y, f.x> per measurement; no m-by-n product."""
        return np.einsum("pmk,mk->p", self.measurements @ f.y, f.x)

    def adjoint(self, c) -> np.ndarray:
        """Dense sum_i c[i] * A_i."""
        # einsum reads a transposed view in place; tensordot would copy it
        return np.einsum("p,pmn->mn", c, self.measurements)

    def design(self, x) -> np.ndarray:
        """The (p, n, k) rows g_i = A_i^T x, so <A_i, x y^T> = <g_i, y>."""
        return self.measurements.transpose(0, 2, 1) @ x


ObservationSet = Union[EntryObservations, GeneralObservations]


class StopReason(enum.Enum):
    TOLERANCE_OBJECTIVE = "tolerance_objective"
    TOLERANCE_GRADIENT = "tolerance_gradient"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class EmfConfig:
    """Solver configuration.

    omega is the expectile level in (0, 1); rank is the factorization rank.
    max_outer caps alternating sweeps (0 returns the initialization);
    ridge adds an optional Tikhonov term guarding rank-deficient subproblems.
    """

    omega: float
    rank: int
    max_outer: int = 100
    tol_objective: float = 1e-10
    tol_gradient: float = 1e-8
    ridge: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.omega < 1.0:
            raise ValueError(f"omega must be in (0, 1), got {self.omega}")
        for name, low in (("rank", 1), ("max_outer", 0), ("seed", 0)):
            value = getattr(self, name)
            try:  # kept as a Python int
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        # written as `not value >= bound`, so NaN fails every check
        if not (self.tol_objective >= 0 and self.tol_gradient >= 0):
            raise ValueError("tolerances must be nonnegative")
        if not 0 <= self.ridge < np.inf:
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge}")


@dataclass(frozen=True)
class SolveReport:
    """Result of a fit: factors plus convergence diagnostics.

    objective_trace holds the objective at the initialization and after
    every completed outer iteration; inner_iters has one count per
    subproblem solve (two per outer iteration).  uncertified_solves counts
    the exact subproblem solves that stopped without their optimality
    certificate (at :data:`emfkit.emf.MAX_INNER` rounds); the one-round
    half-steps of early sweeps (see :mod:`emfkit.emf`) stop short of it by
    design and are not counted.  :attr:`converged` speaks only for the
    outer loop.
    """

    factors: FactorPair
    objective_trace: np.ndarray
    inner_iters: list[int] = field(default_factory=list)
    stop_reason: StopReason = StopReason.MAX_ITERATIONS
    uncertified_solves: int = 0

    def __post_init__(self):
        trace = np.ascontiguousarray(self.objective_trace, dtype=np.float64)
        if trace.size < 1 or not np.isfinite(trace).all() or (trace < 0).any():
            raise ValueError("objective_trace must be non-empty, finite and >= 0")
        object.__setattr__(self, "objective_trace", trace)

    @property
    def converged(self) -> bool:
        """Whether a tolerance, not the sweep cap, stopped the outer loop."""
        return self.stop_reason is not StopReason.MAX_ITERATIONS
