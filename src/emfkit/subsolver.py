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
independent subproblems: per block a (rows, width, d) array of design rows,
gathered once per solve, with zero design rows at padding slots, so normal
matrices, right-hand sides, residuals, per-row objectives and the gradient
are each one batched matmul or reduction per block.  For entry observations
the problem decomposes into independent k-dim subproblems per row of the
unknown factor, and the blocks are the observation set's cached column
layout (:attr:`~emfkit.core.EntryObservations.column_buckets`) with the
fixed factor's rows as design.  General linear measurements couple all rows:
they form one block whose single row is vec(Y), with one slot per
measurement, and its normal equations are solved directly for the min-norm
solution.  At ridge = 0 with fewer measurements than n*k the half-step has
a whole set of minimizers, and the min-norm solve picks one by the weights
of the residuals that are zero or rounding noise; such a fit is not
unique.  A ridge makes every half-step's minimizer unique.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ColumnBucket, EntryObservations, ObservationSet, as_matrix
from .loss import asymmetric_weights

_DESCENT_SLACK = 1e-13
_MAX_HALVINGS = 60


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
        # per half-step: the fixed factor's rows in every slot; padding slots
        # (row -1) gather the appended zero row
        x_pad = np.concatenate([x, np.zeros((1, k))])
        parts = [_Part(b.cols, x_pad[b.rows], b.values) for b in buckets]
    else:
        # one block: row 0 of y is vec(Y), and measurement i is slot i, with
        # design row g_i = vec(A_i^T x)
        slots = np.arange(obs.size)
        col = np.zeros(1, dtype=np.int64)
        buckets = (ColumnBucket(col, slots[None], obs.values[None], slots),)
        parts = [_Part(col, obs.design(x).reshape(1, obs.size, -1), obs.values[None])]
        y = y.reshape(1, -1)
    n, d = y.shape
    ridge_x = ridge * float((x * x).sum())

    def grad_at(y):
        g = np.zeros((n, d)) + 2.0 * ridge * y  # zeros: no -0.0 from 0 * y
        for part, w, r in zip(parts, ws, rs):
            wr = (w * r)[:, :, None]
            g[part.cols] -= 2.0 * np.matmul(part.design.transpose(0, 2, 1), wr)[:, :, 0]
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
    converged = False
    iterations = 0
    for iterations in range(1, max_inner + 1):
        for i, (keep, pos, part, w_old) in enumerate(live):
            if not keep.any():
                continue
            # compact right before use, while the copy is still in cache
            if not keep.all():
                pos, part, w_old = pos[keep], _Part(*(a[keep] for a in part)), w_old[keep]
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

        trace.append(float(obj.sum()) + ridge_x)
        if not any(keep.any() for keep, *_ in live):
            converged = True
            break
        # signs of near-zero residuals can flap on rounding noise without the
        # point moving; once the objective stalls, certify by the gradient
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
    """Some columns of one block: their ids, design rows and values (both
    zero at padding slots)."""

    cols: np.ndarray
    design: np.ndarray
    values: np.ndarray


def _weighted_solve(part: _Part, w, ridge, min_norm):
    """Solve the part's weighted ridge normal equations: one row per column.

    With min_norm (the general block) the min-norm solution is returned:
    at ridge 0 fewer measurements than n*k leave the normal matrix singular.
    """
    a = part.design
    xw = a * w[:, :, None]
    normal = np.matmul(a.transpose(0, 2, 1), xw)
    rhs = np.matmul(xw.transpose(0, 2, 1), part.values[:, :, None])
    normal.reshape(len(normal), -1)[:, :: a.shape[2] + 1] += ridge  # its diagonals
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
    r = part.values - np.matmul(part.design, y[:, :, None])[:, :, 0]
    w = asymmetric_weights(r, omega)
    obj = (w * r * r).sum(axis=1)
    obj += ridge * (y * y).sum(axis=1)
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
