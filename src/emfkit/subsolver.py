"""Exact solvers for the convex inner subproblems of the alternating loop.

With one factor fixed the objective is a convex, C^1, piecewise-quadratic
function of the other factor.  The fast path is sign-set iteration
(reweighted least squares with the two-valued asymmetric weights): fix the
weights implied by the current residual signs, solve the weighted ridge
normal equations, recompute signs, repeat.  Once a round leaves the weights
unchanged its solution satisfies its own signs, has zero gradient and is
therefore the global minimizer.  If a reweighted step ever increases the
objective, the step is bisected toward the previous iterate (the step is a
strict descent direction, so a short enough step always descends).

One driver serves both observation kinds.  It works on blocks of
independent subproblems: per block a slot-major (rows, d, width) array of
design rows, gathered once per solve, with zero design rows at padding
slots.  Normal matrices, right-hand sides, residuals, per-row objectives
and the gradient are each one batched matmul or reduction per block.  For
entry observations the problem decomposes into independent k-dim
subproblems per row of the unknown factor, and the blocks are the
observation set's cached column layout
(:attr:`~emfkit.core.EntryObservations.column_buckets`) with the fixed
factor's rows as design, gathered with one take per factor column; each
factor column is one plane in memory, so the weighting and the products
run along contiguous slots.  General linear measurements couple all rows:
they form one (1, n*k, p) block, a view of the measurements' design rows,
whose single row is vec(Y), with one slot per measurement, and its normal
equations are solved directly for the min-norm solution.  At ridge = 0 with fewer measurements than n*k the
half-step has a whole set of minimizers, and the min-norm solve picks one
by the weights of the residuals that are zero or rounding noise; such a
fit is not unique.  A ridge makes every half-step's minimizer unique.

Rows of the unknown are independent subproblems, so each converges on its
own: a row leaves the round loop once a round leaves its weights unchanged
and does not damp it.  It then satisfies its own signs and is its own
global minimizer, and every later round would reproduce it bit for bit.
Each bucket keeps a live part: the positions, design rows, values and
weights of its rows still in the loop, compacted at the start of a round
after some of them left.  A round solves each live part, updates the
solution and the per-row objectives in place, keeps only the live rows'
previous values, for the descent test and the step halving, and writes
their residuals and weights back.  The half-step ends when no row is left;
the general block is one row.  Rounds and solutions are exactly those of
re-solving every row in every round until all weights hold.

Buckets write disjoint rows, so a round solves its live buckets
concurrently: the calling thread and a pool's threads, one thread per core
this process may run on (:data:`ROUND_THREADS` caps that) and at most one
per bucket, each take the next live bucket when free; numpy releases the
interpreter lock in the heavy calls.  Each bucket's arithmetic is the same
on any thread, so results are bit-identical to solving the buckets one
after another.  A round with one live bucket, such as the general block,
or with few live design numbers runs inline, and the pool lives only as
long as one call.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ColumnBucket, EntryObservations, ObservationSet, as_matrix
from .loss import asymmetric_weights

_DESCENT_SLACK = 1e-13
_MAX_HALVINGS = 60

# Most threads one round solves buckets on; None means one per core this
# process may run on.  CLI grid workers set 1: the grid already uses the cores.
ROUND_THREADS = None
# A round over fewer live design numbers than this (2 MiB of them) runs on
# the calling thread: there the hand-offs between threads cost more than
# the other cores save, and numpy holds the interpreter lock on small arrays
_THREADED_NUMBERS = 1 << 18
# Design numbers weighted at a time in a normal-matrix assembly (512 KiB)
_WEIGHTED_NUMBERS = 1 << 16


class SingularDesignError(RuntimeError):
    """A column's weighted normal matrix is singular and ridge is zero; the
    message names the column."""


@dataclass(frozen=True)
class SubproblemResult:
    """Solution of one inner subproblem plus its optimality certificate.

    sign_pattern marks nonnegative residuals at the solution (in observation
    order); inner_objective_trace holds the objective before the first and
    after every sign-set round; start_gradient is the objective's gradient
    at the warm start, shaped like the solution.
    """

    solution: np.ndarray
    sign_pattern: np.ndarray
    inner_iterations: int
    final_gradient_norm: float
    converged: bool
    inner_objective_trace: np.ndarray
    start_gradient: np.ndarray


def solve_y(
    x_fixed,
    obs: ObservationSet,
    omega: float,
    ridge: float = 0.0,
    warm_start=None,
    *,
    max_inner: int = 100,
    tol_gradient: float = 1e-8,
) -> SubproblemResult:
    """Globally minimize the objective over the right factor, left factor fixed.

    The left-factor half-step is ``solve_y(y_fixed, obs.transposed, ...)``.
    """
    x = as_matrix(x_fixed, "fixed factor")
    if not 0.0 < omega < 1.0:
        raise ValueError(f"omega must be in (0, 1), got {omega}")
    if not ridge >= 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    if obs.shape[0] != x.shape[0]:
        raise ValueError(
            f"fixed factor has {x.shape[0]} rows, observations expect {obs.shape[0]}"
        )
    k = x.shape[1]
    if warm_start is None:
        y = np.zeros((obs.shape[1], k))
    else:
        # solve_y's own copy: the rounds update it in place
        y = as_matrix(warm_start, "warm_start").copy()
        if y.shape != (obs.shape[1], k):
            raise ValueError(f"warm_start shape {y.shape}, expected {(obs.shape[1], k)}")
    entry = isinstance(obs, EntryObservations)
    if entry:
        if ridge == 0.0:
            short = np.nonzero(obs.col_counts < k)[0]
            if short.size:
                raise SingularDesignError(
                    f"column {short[0]} has {obs.col_counts[short[0]]} observations, "
                    f"fewer than rank {k}, and ridge is zero"
                )
        buckets = obs.column_buckets
        # per half-step: the fixed factor's columns, each with a zero
        # appended, which padding slots (row -1) gather
        xt = np.zeros((k, x.shape[0] + 1))
        xt[:, :-1] = x.T
        parts = [_Part(b.cols, _gather(xt, b.rows), b.values) for b in buckets]
    else:
        # one block: row 0 of y is vec(Y), and measurement i is slot i, with
        # design row g_i = vec(A_i^T x)
        slots = np.arange(obs.size)
        col = np.zeros(1, dtype=np.int64)
        buckets = (ColumnBucket(col, slots[None], obs.values[None], slots),)
        parts = [_Part(col, obs.design(x).reshape(obs.size, -1).T[None], obs.values[None])]
        y = y.reshape(1, -1)
    n, d = y.shape
    ridge_x = ridge * float((x * x).sum())

    def grad_at(y):
        g = np.zeros((n, d)) + 2.0 * ridge * y  # zeros: no -0.0 from 0 * y
        for part, w, r in zip(parts, ws, rs):
            g[part.cols] -= 2.0 * np.matmul(part.design, (w * r)[:, :, None])[:, :, 0]
        return g

    # per bucket, the residuals and weights of its columns at y; per column,
    # its objective at y
    rs, ws = [None] * len(parts), [None] * len(parts)
    obj = np.empty(n)
    for i, part in enumerate(parts):
        rs[i], ws[i], obj[part.cols] = _evaluate(part, y[part.cols], omega, ridge)
    trace = [float(obj.sum()) + ridge_x]
    g0 = grad_at(y)
    grad0 = float(np.linalg.norm(g0))

    # per bucket, over its live columns: which stay in the loop, positions, part, weights
    live = [(np.ones(len(p.cols), dtype=bool), np.arange(len(p.cols)), p, w)
            for p, w in zip(parts, ws)]

    def solve_bucket(i):
        # one bucket's share of a round, on its compacted live part; it reads
        # and writes only its own columns, so buckets may run on different threads
        _, pos, part, w_old = live[i]
        c = part.cols
        y_old, obj_old = y[c], obj[c]
        y_c = _weighted_solve(part, w_old, ridge, not entry)
        r, w, obj_c = _evaluate(part, y_c, omega, ridge)
        changed = (w != w_old).any(axis=1)
        worse = obj_c > obj_old * (1.0 + _DESCENT_SLACK) + 1e-300
        if worse.any():
            bad = _Part(*(a[worse] for a in part))
            y_c[worse] = _damp(bad, y_old[worse], y_c[worse], obj_old[worse], omega, ridge)
            r[worse], w[worse], obj_c[worse] = _evaluate(bad, y_c[worse], omega, ridge)
        y[c], obj[c] = y_c, obj_c
        rs[i][pos], ws[i][pos] = r, w
        # a column whose weights held through an undamped step satisfies
        # its own signs, so it is its own global minimizer and every later
        # round would reproduce it bit for bit; at omega = 0.5 every column
        # leaves after the first round whatever the signs do
        live[i] = changed | worse, pos, part, w

    converged = False
    iterations = 0
    threads = 1
    if d * sum(p.values.size for p in parts) >= _THREADED_NUMBERS:
        threads = min(ROUND_THREADS or usable_cores(), len(parts))
    # this thread solves buckets too, beside threads - 1 of the pool's
    with ThreadPoolExecutor(threads - 1) if threads > 1 else nullcontext() as pool:
        for iterations in range(1, max_inner + 1):
            todo = [i for i, (keep, *_) in enumerate(live) if keep.any()]
            for i in todo:
                keep, pos, part, w_old = live[i]
                if not keep.all():
                    # compacted on this thread, so that the copies, which
                    # outlive the round, stay out of the bucket threads' heaps
                    live[i] = keep[keep], pos[keep], _Part(*(a[keep] for a in part)), w_old[keep]
            numbers = d * sum(live[i][2].values.size for i in todo)
            if pool is None or len(todo) < 2 or numbers < _THREADED_NUMBERS:
                for i in todo:
                    solve_bucket(i)
            else:
                _spread(pool, threads, solve_bucket, todo)
            trace.append(float(obj.sum()) + ridge_x)
            if not any(keep.any() for keep, *_ in live):
                converged = True
                break
            # signs of near-zero residuals can flap on rounding noise without
            # the point moving; once the objective stalls, certify by the gradient
            if (trace[-2] - trace[-1]) <= 1e-13 * max(trace[-2], 1e-300):
                if np.linalg.norm(grad_at(y)) <= tol_gradient * (1.0 + grad0):
                    converged = True
                    break

    gnorm = float(np.linalg.norm(grad_at(y)))
    pattern = np.empty(obs.size, dtype=bool)
    for b, r in zip(buckets, rs):
        pattern[b.obs] = r[b.rows >= 0] >= 0.0
    return SubproblemResult(
        solution=y.reshape(obs.shape[1], k),
        sign_pattern=pattern,
        inner_iterations=iterations,
        final_gradient_norm=gnorm,
        converged=converged and gnorm <= tol_gradient * (1.0 + grad0),
        inner_objective_trace=np.asarray(trace),
        start_gradient=g0.reshape(obs.shape[1], k),
    )


class _Part(NamedTuple):
    """Some columns of one block: their ids, their slot-major (columns, d,
    width) design rows and their (columns, width) values, both zero at
    padding slots."""

    cols: np.ndarray
    design: np.ndarray
    values: np.ndarray


def _spread(pool, threads, step, ids):
    """Call step(i) for every i in ids, on this thread and on threads - 1 of
    the pool's, each taking the next id when it is free.  A failure raised is
    that of the first failing id in ids, the one a serial loop meets."""
    queue, lock = iter(ids), threading.Lock()
    failed = {}

    def drain():
        while True:
            with lock:
                i = next(queue, None)
            if i is None:
                return
            try:
                step(i)
            except Exception as exc:  # raised below, once every id has run
                failed[i] = exc

    helpers = [pool.submit(drain) for _ in range(threads - 1)]
    drain()
    for helper in helpers:
        helper.result()
    if failed:
        raise failed[min(failed)]


def _gather(xt, rows):
    """The (columns, k, width) design block whose slot (c, s) holds column
    rows[c, s] of xt: one take per factor column, each written straight
    into its own contiguous (columns, width) plane."""
    a = np.empty((len(xt),) + rows.shape)
    for j, xj in enumerate(xt):
        xj.take(rows, out=a[j], mode="wrap")  # row -1 wraps to the zero column
    return a.transpose(1, 0, 2)


def usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _weighted_solve(part: _Part, w, ridge, min_norm):
    """Solve the part's weighted ridge normal equations: one row per column.

    With min_norm (the general block) the min-norm solution is returned:
    at ridge 0 fewer measurements than n*k leave the normal matrix singular.
    """
    a = part.design
    cols, d, width = a.shape
    normal, rhs = np.empty((cols, d, d)), np.empty((cols, d, 1))
    # weight a few columns at a time: the weighted copy stays in cache, and
    # the bucket threads' heaps stay small
    step = max(1, _WEIGHTED_NUMBERS // max(d * width, 1))  # width 0: empty columns
    for lo in range(0, cols, step):
        xw = a[lo:lo + step] * w[lo:lo + step, None, :]
        np.matmul(xw, a[lo:lo + step].transpose(0, 2, 1), out=normal[lo:lo + step])
        np.matmul(xw, part.values[lo:lo + step, :, None], out=rhs[lo:lo + step])
    normal.reshape(cols, -1)[:, :: d + 1] += ridge  # its diagonals
    if min_norm:
        return np.linalg.lstsq(normal[0], rhs[0, :, 0], rcond=None)[0][None]
    try:
        y = np.linalg.solve(normal, rhs)[:, :, 0]
    except np.linalg.LinAlgError as exc:
        # only now find the column: the batched solve itself costs nothing more
        for c in range(len(normal)):
            try:
                np.linalg.solve(normal[c], rhs[c])
            except np.linalg.LinAlgError:
                break
        raise SingularDesignError(
            f"column {part.cols[c]}: its weighted normal matrix is singular and ridge is zero"
        ) from exc
    if not np.isfinite(y).all():
        c = np.nonzero(~np.isfinite(y).all(axis=1))[0][0]
        raise SingularDesignError(
            f"column {part.cols[c]}: its weighted normal matrix is numerically singular"
        )
    return y


def _evaluate(part: _Part, y, omega, ridge):
    """Residuals, weights and objectives of the part's columns at y, their rows.

    A padding slot's residual is exactly zero, so it adds nothing.
    """
    r = part.values - np.matmul(y[:, None, :], part.design)[:, 0, :]
    w = asymmetric_weights(r, omega)
    obj = (w * r * r).sum(axis=1)
    obj += ridge * np.einsum("ij,ij->i", y, y)
    return r, w, obj


def _damp(part: _Part, y_old, y_new, obj_old, omega, ridge):
    """Halve the step from y_old to y_new (the part's rows) per column until
    it descends from obj_old; a column that never does keeps y_old."""
    out = y_old.copy()
    left = np.ones(len(out), dtype=bool)
    t = 0.5
    for _ in range(_MAX_HALVINGS):
        trial = y_old + t * (y_new - y_old)
        obj = _evaluate(part, trial, omega, ridge)[2]
        ok = left & (obj <= obj_old * (1.0 + _DESCENT_SLACK) + 1e-300)
        out[ok] = trial[ok]
        left &= ~ok
        if not left.any():
            break
        t *= 0.5
    return out
