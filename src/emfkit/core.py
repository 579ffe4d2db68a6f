"""Core containers: matrices, factor pairs, observation sets, solver config.

Dense matrices are plain float64 numpy arrays (row-major); :func:`as_matrix`
is the single validation gate.  Observation sets come in two flavors:
entry-level observations of individual matrix elements (the completion
case) and general linear measurements ``b_i = <A_i, M>``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Union

import numpy as np
import scipy.sparse as sp


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


def frobenius_distance(a, b) -> float:
    """Frobenius norm of the difference of two equally shaped matrices."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


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

    @property
    def rank(self) -> int:
        return self.x.shape[1]


def product_entry(f: FactorPair, i: int, j: int) -> float:
    """Entry (i, j) of the product f.x @ f.y.T."""
    m, n = f.shape
    if not (0 <= i < m and 0 <= j < n):
        raise IndexError(f"entry ({i}, {j}) out of range for {m}x{n} product")
    return float(f.x[i] @ f.y[j])


def _check_indices(idx: np.ndarray, bound: int, axis: str):
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        bad = idx[(idx < 0) | (idx >= bound)][0]
        raise ValueError(f"{axis} index {bad} out of range [0, {bound})")


@dataclass(frozen=True)
class ColumnBucket:
    """Columns of equal padded width and their observations, one slot each.

    rows, values and live are (columns, width) arrays: the row index and
    value of each slot, and whether the slot holds an observation (padding
    slots have row 0 and value 0).  obs lists the observation index of every
    live slot in row-major slot order, so ``v[live]`` lines up with ``obs``.
    """

    cols: np.ndarray
    rows: np.ndarray
    values: np.ndarray
    live: np.ndarray
    obs: np.ndarray


class EntryObservations:
    """Observed matrix entries (i, j, value) of an m-by-n matrix.

    Duplicate (i, j) pairs are rejected: the completion model has one
    observation per element.  Instances are immutable and safe to share.
    The column-grouped views (:attr:`by_col` for gradients and the padded
    :attr:`column_buckets` layout the subproblem solver works on) are built
    on first use and cached, so construction only validates and counts.
    """

    def __init__(self, shape: tuple[int, int], row_idx, col_idx, values):
        m, n = int(shape[0]), int(shape[1])
        if m < 1 or n < 1:
            raise ValueError(f"invalid shape {shape}")
        rows = np.ascontiguousarray(row_idx, dtype=np.int64)
        cols = np.ascontiguousarray(col_idx, dtype=np.int64)
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
        self.row_counts = np.bincount(rows, minlength=m)
        self.col_counts = np.bincount(cols, minlength=n)

    @property
    def size(self) -> int:
        return self.values.size

    @classmethod
    def from_entries(cls, shape, entries) -> "EntryObservations":
        """Build from an iterable of (i, j, value) triplets."""
        entries = list(entries)
        if not entries:
            raise ValueError("need at least one observation")
        rows = [e[0] for e in entries]
        cols = [e[1] for e in entries]
        vals = [e[2] for e in entries]
        return cls(shape, rows, cols, vals)

    @cached_property
    def by_col(self) -> sp.csr_matrix:
        """(by_col @ v)[j] sums v over column j's observations; built on first use."""
        p = self.size
        return sp.csr_matrix(
            (np.ones(p), (self.col_idx, np.arange(p))), shape=(self.shape[1], p)
        )

    @cached_property
    def column_buckets(self) -> tuple["ColumnBucket", ...]:
        """Observations grouped per column into zero-padded degree buckets.

        A column with d >= 1 observations gets 2^ceil(log2 d) slots, so
        padding at most doubles the slot count whatever the degree spread;
        an empty column gets none.  Columns of equal width share a bucket,
        in increasing column order, and each column's observations keep
        their original relative order.  Built on first use, then cached.
        """
        counts = self.col_counts
        widths = np.where(counts > 0, 1 << np.frexp(counts - 1)[1], 0)
        order = np.argsort(self.col_idx, kind="stable")
        sorted_cols = self.col_idx[order]
        starts = np.cumsum(counts) - counts
        slot = np.arange(order.size) - starts[sorted_cols]
        obs_width = widths[sorted_cols]
        buckets = []
        for width in np.unique(widths):
            cols = np.nonzero(widths == width)[0]
            local = np.empty(self.shape[1], dtype=np.int64)
            local[cols] = np.arange(cols.size)
            sel = obs_width == width
            obs = order[sel]
            at = (local[sorted_cols[sel]], slot[sel])
            rows = np.zeros((cols.size, width), dtype=np.int64)
            values = np.zeros((cols.size, width))
            live = np.zeros((cols.size, width), dtype=bool)
            rows[at] = self.row_idx[obs]
            values[at] = self.values[obs]
            live[at] = True
            buckets.append(ColumnBucket(cols, rows, values, live, obs))
        return tuple(buckets)

    @cached_property
    def transposed(self) -> "EntryObservations":
        """The same observations viewed as entries of the transposed matrix.

        Observation order is preserved, so sign patterns and residual
        vectors line up between the two views.
        """
        t = EntryObservations(
            (self.shape[1], self.shape[0]), self.col_idx, self.row_idx, self.values
        )
        t.__dict__["transposed"] = self
        return t

    def to_sparse(self) -> sp.csr_matrix:
        """Zero-filled sparse matrix of the observed values."""
        return sp.csr_matrix(
            (self.values, (self.row_idx, self.col_idx)), shape=self.shape
        )


class GeneralObservations:
    """General linear measurements b_i = <A_i, M> of an m-by-n matrix.

    Measurement matrices may be dense arrays or scipy sparse matrices;
    they are kept as given.
    """

    def __init__(self, shape: tuple[int, int], measurements: Sequence, values):
        m, n = int(shape[0]), int(shape[1])
        if m < 1 or n < 1:
            raise ValueError(f"invalid shape {shape}")
        vals = np.ascontiguousarray(values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("values must be a non-empty vector")
        if not np.isfinite(vals).all():
            raise ValueError("observation values must be finite")
        measurements = list(measurements)
        if len(measurements) != vals.size:
            raise ValueError(
                f"got {len(measurements)} measurement matrices for {vals.size} values"
            )
        for idx, a in enumerate(measurements):
            if a.shape != (m, n):
                raise ValueError(
                    f"measurement {idx} has shape {a.shape}, expected {(m, n)}"
                )
            data = a.data if sp.issparse(a) else np.asarray(a)
            if not np.isfinite(data).all():
                raise ValueError(f"measurement {idx} contains non-finite entries")
        self.shape = (m, n)
        self.measurements = measurements
        self.values = vals

    @property
    def size(self) -> int:
        return self.values.size

    @cached_property
    def transposed(self) -> "GeneralObservations":
        t = GeneralObservations(
            (self.shape[1], self.shape[0]),
            [a.T for a in self.measurements],
            self.values,
        )
        t.__dict__["transposed"] = self
        return t

    def weighted_sum(self) -> np.ndarray:
        """Dense sum_i values[i] * A_i (the initialization target)."""
        out = np.zeros(self.shape)
        for b, a in zip(self.values, self.measurements):
            out += b * (a.toarray() if sp.issparse(a) else np.asarray(a))
        return out


ObservationSet = Union[EntryObservations, GeneralObservations]


class StopReason(enum.Enum):
    TOLERANCE_OBJECTIVE = "tolerance_objective"
    TOLERANCE_GRADIENT = "tolerance_gradient"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class EmfConfig:
    """Solver configuration.

    omega is the expectile level in (0, 1); rank is the factorization rank.
    max_outer caps alternating sweeps (0 returns the initialization),
    max_inner caps sign-set rounds per subproblem.  ridge adds an optional
    Tikhonov term guarding rank-deficient subproblems.
    init_scale_by_inverse_rate rescales the entry-observation initialization
    target by (m*n)/p; off by default, which follows the plain weighted
    measurement sum.
    """

    omega: float
    rank: int
    max_outer: int = 100
    tol_objective: float = 1e-10
    tol_gradient: float = 1e-8
    ridge: float = 0.0
    use_qr: bool = False
    seed: int = 0
    max_inner: int = 100
    eval_denominator_floor: float = 1e-12
    init_scale_by_inverse_rate: bool = False

    def __post_init__(self):
        if not 0.0 < self.omega < 1.0:
            raise ValueError(f"omega must be in (0, 1), got {self.omega}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.max_outer < 0:
            raise ValueError(f"max_outer must be >= 0, got {self.max_outer}")
        if self.max_inner < 1:
            raise ValueError(f"max_inner must be >= 1, got {self.max_inner}")
        if self.tol_objective < 0 or self.tol_gradient < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.ridge < 0:
            raise ValueError(f"ridge must be >= 0, got {self.ridge}")
        if self.eval_denominator_floor <= 0:
            raise ValueError("eval_denominator_floor must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class SolveReport:
    """Result of a fit: factors plus convergence diagnostics.

    objective_trace holds the objective at the initialization and after
    every completed outer iteration; inner_iters has one count per
    subproblem solve (two per outer iteration).  uncertified_solves counts
    the subproblem solves that stopped without their optimality certificate
    (at max_inner); converged speaks only for the outer loop.
    """

    factors: FactorPair
    objective_trace: np.ndarray
    inner_iters: list[int] = field(default_factory=list)
    converged: bool = False
    stop_reason: StopReason = StopReason.MAX_ITERATIONS
    wall_seconds: float = 0.0
    uncertified_solves: int = 0

    def __post_init__(self):
        trace = np.ascontiguousarray(self.objective_trace, dtype=np.float64)
        if trace.size < 1 or not np.isfinite(trace).all() or (trace < 0).any():
            raise ValueError("objective_trace must be non-empty, finite and >= 0")
        object.__setattr__(self, "objective_trace", trace)
