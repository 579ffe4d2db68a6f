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

For entry observations the problem decomposes into independent k-dim
subproblems per row of the unknown factor.  They are solved batched on the
observation set's cached column layout
(:attr:`~emfkit.core.EntryObservations.column_buckets`): per degree bucket
a (columns, width, k) array of the fixed factor's rows, gathered once per
solve, with padding slots at weight zero, so normal matrices, right-hand
sides, residuals, per-row objectives and the gradient are each one batched
matmul or reduction per bucket.  General linear measurements couple all
rows and are solved by conjugate gradients on the weighted normal
equations.

:func:`reference_qp_solve` is the independent oracle: it enumerates all
2^p residual sign patterns of the split-variable formulation (positive and
negative residual parts) and keeps the candidate with the lowest true
objective.  Intended for tests on tiny instances only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EntryObservations, FactorPair, ObservationSet, as_matrix
from .loss import asymmetric_weights, gradient_y

_DESCENT_SLACK = 1e-13
_MAX_HALVINGS = 60
_QP_MAX_P = 20
_QP_MAX_PRODUCTS = 100_000


class SingularDesignError(RuntimeError):
    """A subproblem's weighted normal matrix is singular and ridge is zero."""


class RankDeficientError(RuntimeError):
    """QR orthonormalization of a (numerically) rank-deficient matrix."""


@dataclass(frozen=True)
class SubproblemResult:
    """Solution of one inner subproblem plus its optimality certificate.

    sign_pattern marks nonnegative residuals at the solution (in observation
    order); inner_objective_trace holds the objective before the first and
    after every sign-set round.
    """

    solution: np.ndarray
    sign_pattern: np.ndarray
    inner_iterations: int
    final_gradient_norm: float
    converged: bool
    inner_objective_trace: np.ndarray


def qr_orthonormalize(a) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with nonnegative diagonal of r (deterministic signs)."""
    a = as_matrix(a, "a")
    q, r = np.linalg.qr(a)
    d = np.abs(np.diag(r))
    if d.max() == 0.0 or d.min() <= 1e-12 * d.max():
        raise RankDeficientError(
            f"matrix is numerically rank deficient (diagonal ratio "
            f"{0.0 if d.max() == 0 else d.min() / d.max():.2e})"
        )
    flip = np.diag(r) < 0
    q = q.copy()
    r = r.copy()
    q[:, flip] *= -1.0
    r[flip, :] *= -1.0
    return q, r


def _validate_inputs(fixed, obs, omega, ridge, warm_start):
    fixed = as_matrix(fixed, "fixed factor")
    if not 0.0 < omega < 1.0:
        raise ValueError(f"omega must be in (0, 1), got {omega}")
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    if obs.shape[0] != fixed.shape[0]:
        raise ValueError(
            f"fixed factor has {fixed.shape[0]} rows, observations expect {obs.shape[0]}"
        )
    k = fixed.shape[1]
    n = obs.shape[1]
    if warm_start is None:
        y0 = np.zeros((n, k))
    else:
        y0 = as_matrix(warm_start, "warm_start").copy()
        if y0.shape != (n, k):
            raise ValueError(f"warm_start shape {y0.shape}, expected {(n, k)}")
    return fixed, y0


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
    """Globally minimize the objective over the right factor, left factor fixed."""
    x, y0 = _validate_inputs(x_fixed, obs, omega, ridge, warm_start)
    if isinstance(obs, EntryObservations):
        return _solve_entry(x, obs, omega, ridge, y0, max_inner, tol_gradient)
    return _solve_general(x, obs, omega, ridge, y0, max_inner, tol_gradient)


def solve_x(
    y_fixed,
    obs: ObservationSet,
    omega: float,
    ridge: float = 0.0,
    warm_start=None,
    *,
    max_inner: int = 100,
    tol_gradient: float = 1e-8,
) -> SubproblemResult:
    """Mirror of :func:`solve_y`: minimize over the left factor via transposition."""
    return solve_y(
        y_fixed,
        obs.transposed,
        omega,
        ridge,
        warm_start,
        max_inner=max_inner,
        tol_gradient=tol_gradient,
    )


def _grad_norm(obs, x, y, omega, ridge) -> float:
    g = gradient_y(obs, FactorPair(x, y), omega, ridge)
    return float(np.linalg.norm(g))


def _solve_entry(x, obs, omega, ridge, y0, max_inner, tol_gradient):
    n = obs.shape[1]
    k = x.shape[1]
    if ridge == 0.0:
        short = np.nonzero(obs.col_counts < k)[0]
        if short.size:
            raise SingularDesignError(
                f"column {short[0]} has {obs.col_counts[short[0]]} observations, "
                f"fewer than rank {k}, and ridge is zero"
            )
    buckets = obs.column_buckets
    # per half-step: the fixed factor's rows in every slot, and the two weight
    # levels with padding slots held at weight zero
    xb = [x[b.rows] for b in buckets]
    xbt = [a.transpose(0, 2, 1) for a in xb]
    w_pos = [np.where(b.live, omega, 0.0) for b in buckets]
    w_neg = [np.where(b.live, 1.0 - omega, 0.0) for b in buckets]
    ridge_x = ridge * float((x * x).sum()) if ridge else 0.0

    def residuals_at(y):
        return [
            b.values - np.matmul(a, y[b.cols, :, None])[:, :, 0]
            for b, a in zip(buckets, xb)
        ]

    def weights_of(rs):
        return [np.where(r >= 0.0, wp, wn) for r, wp, wn in zip(rs, w_pos, w_neg)]

    def col_objectives(ws, rs, y):
        o = np.empty(n)
        for b, w, r in zip(buckets, ws, rs):
            o[b.cols] = (w * r * r).sum(axis=1)
        if ridge:
            o += ridge * (y * y).sum(axis=1)
        return o

    def grad_norm_at(ws, rs, y):
        g = 2.0 * ridge * y if ridge else np.zeros((n, k))
        for b, at, w, r in zip(buckets, xbt, ws, rs):
            g[b.cols] -= 2.0 * np.matmul(at, (w * r)[:, :, None])[:, :, 0]
        return float(np.linalg.norm(g))

    def weighted_solve(ws):
        normal = np.empty((n, k, k))
        rhs = np.empty((n, k, 1))
        for b, a, at, w in zip(buckets, xb, xbt, ws):
            xw = a * w[:, :, None]
            normal[b.cols] = np.matmul(at, xw)
            rhs[b.cols] = np.matmul(xw.transpose(0, 2, 1), b.values[:, :, None])
        if ridge:
            normal += ridge * np.eye(k)
        try:
            y_new = np.linalg.solve(normal, rhs)[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise SingularDesignError(
                "a per-row weighted normal matrix is singular and ridge is zero"
            ) from exc
        if not np.isfinite(y_new).all():
            raise SingularDesignError(
                "a per-row weighted normal matrix is numerically singular"
            )
        return y_new

    y = y0
    rs = residuals_at(y)
    ws = weights_of(rs)
    obj_rows = col_objectives(ws, rs, y)
    trace = [float(obj_rows.sum()) + ridge_x]
    grad0 = grad_norm_at(ws, rs, y)

    converged = False
    iterations = 0
    for iterations in range(1, max_inner + 1):
        y_new = weighted_solve(ws)
        rs_new = residuals_at(y_new)
        ws_new = weights_of(rs_new)
        obj_new = col_objectives(ws_new, rs_new, y_new)

        worse = obj_new > obj_rows * (1.0 + _DESCENT_SLACK) + 1e-300
        damped = bool(worse.any())
        if damped:
            y_new = _bisect_rows(
                y, y_new, obj_rows, worse, x, obs.row_idx, obs.col_idx, obs.values,
                omega, ridge,
            )
            rs_new = residuals_at(y_new)
            ws_new = weights_of(rs_new)
            obj_new = col_objectives(ws_new, rs_new, y_new)

        # unchanged weights reproduce this very solve; at omega = 0.5 that
        # holds after the first round whatever the signs do
        stable = not damped and all(map(np.array_equal, ws_new, ws))
        y, rs, ws, obj_rows = y_new, rs_new, ws_new, obj_new
        trace.append(float(obj_rows.sum()) + ridge_x)
        if stable:
            converged = True
            break
        # signs of near-zero residuals can flap on rounding noise without the
        # point moving; once the objective stalls, certify by the gradient
        if (trace[-2] - trace[-1]) <= 1e-13 * max(trace[-2], 1e-300):
            if grad_norm_at(ws, rs, y) <= tol_gradient * (1.0 + grad0):
                converged = True
                break

    gnorm = grad_norm_at(ws, rs, y)
    pattern = np.empty(obs.size, dtype=bool)
    for b, r in zip(buckets, rs):
        pattern[b.obs] = r[b.live] >= 0.0
    return SubproblemResult(
        solution=y,
        sign_pattern=pattern,
        inner_iterations=iterations,
        final_gradient_norm=gnorm,
        converged=converged and gnorm <= tol_gradient * (1.0 + grad0),
        inner_objective_trace=np.asarray(trace),
    )


def _bisect_rows(y_old, y_new, obj_old, worse, x, rows, cols, vals, omega, ridge):
    """Per-row halving toward y_old until every flagged row descends."""
    bad = np.nonzero(worse)[0]
    local = -np.ones(len(y_old), dtype=np.int64)
    local[bad] = np.arange(bad.size)
    sub = local[cols] >= 0
    xg_s, cols_s, vals_s = x[rows[sub]], local[cols[sub]], vals[sub]

    y_out = y_new.copy()
    base = y_old[bad]
    step = y_new[bad] - base
    t = np.full(bad.size, 0.5)
    active = np.ones(bad.size, dtype=bool)
    for _ in range(_MAX_HALVINGS):
        trial = base + t[:, None] * step
        r = vals_s - np.einsum("pk,pk->p", xg_s, trial[cols_s])
        w = np.where(r >= 0.0, omega, 1.0 - omega)
        obj_trial = np.zeros(bad.size)
        np.add.at(obj_trial, cols_s, w * r * r)
        if ridge:
            obj_trial += ridge * (trial * trial).sum(axis=1)
        ok = active & (obj_trial <= obj_old[bad] * (1.0 + _DESCENT_SLACK) + 1e-300)
        if ok.any():
            y_out[bad[ok]] = trial[ok]
            active &= ~ok
        if not active.any():
            break
        t[active] *= 0.5
    if active.any():
        # could not find a descent step: keep the previous iterate for those rows
        y_out[bad[active]] = y_old[bad[active]]
    return y_out


def _conjugate_gradient(apply_op, rhs, rel_tol=1e-12):
    """CG for an SPSD system with rhs in its range; zero start (min-norm)."""
    z = np.zeros_like(rhs)
    resid = rhs.copy()
    direction = resid.copy()
    rs = float(resid @ resid)
    bnorm = float(np.sqrt(rhs @ rhs)) or 1.0
    for _ in range(max(20, 10 * rhs.size)):
        if np.sqrt(rs) <= rel_tol * bnorm:
            break
        ad = apply_op(direction)
        dad = float(direction @ ad)
        if dad <= 0.0:
            break
        alpha = rs / dad
        z += alpha * direction
        resid -= alpha * ad
        rs_new = float(resid @ resid)
        direction = resid + (rs_new / rs) * direction
        rs = rs_new
    return z


def _solve_general(x, obs, omega, ridge, y0, max_inner, tol_gradient):
    n = obs.shape[1]
    k = x.shape[1]
    p = obs.size
    # design rows g_i = vec(A_i^T x), so that r_i = b_i - g_i . vec(Y)
    g = np.empty((p, n * k))
    for i, a in enumerate(obs.measurements):
        g[i] = np.asarray(a.T @ x).ravel()
    b = obs.values

    def wls(w):
        def apply_op(z):
            out = g.T @ (w * (g @ z))
            if ridge:
                out = out + ridge * z
            return out

        return _conjugate_gradient(apply_op, g.T @ (w * b))

    def full_objective(yv):
        r = b - g @ yv
        val = float(np.dot(asymmetric_weights(r, omega) * r, r))
        if ridge:
            val += ridge * float(yv @ yv) + ridge * float((x * x).sum())
        return val, r

    y = y0.ravel().copy()
    obj, r = full_objective(y)
    w = np.where(r >= 0.0, omega, 1.0 - omega)
    trace = [obj]
    grad0 = _grad_norm(obs, x, y.reshape(n, k), omega, ridge)

    converged = False
    iterations = 0
    for iterations in range(1, max_inner + 1):
        y_new = wls(w)
        obj_new, r_new = full_objective(y_new)
        damped = False
        if obj_new > obj * (1.0 + _DESCENT_SLACK) + 1e-300:
            damped = True
            t = 0.5
            step = y_new - y
            for _ in range(_MAX_HALVINGS):
                y_try = y + t * step
                obj_try, r_try = full_objective(y_try)
                if obj_try <= obj * (1.0 + _DESCENT_SLACK) + 1e-300:
                    y_new, obj_new, r_new = y_try, obj_try, r_try
                    break
                t *= 0.5
            else:
                y_new, obj_new, r_new = y, obj, r

        y, obj, r = y_new, obj_new, r_new
        w_new = np.where(r >= 0.0, omega, 1.0 - omega)
        trace.append(obj)
        stable = (not damped) and bool(np.array_equal(w_new, w))
        w = w_new
        if stable:
            converged = True
            break
        if (trace[-2] - trace[-1]) <= 1e-13 * max(trace[-2], 1e-300):
            if _grad_norm(obs, x, y.reshape(n, k), omega, ridge) <= tol_gradient * (1.0 + grad0):
                converged = True
                break

    solution = y.reshape(n, k)
    gnorm = _grad_norm(obs, x, solution, omega, ridge)
    return SubproblemResult(
        solution=solution,
        sign_pattern=r >= 0.0,
        inner_iterations=iterations,
        final_gradient_norm=gnorm,
        converged=converged and gnorm <= tol_gradient * (1.0 + grad0),
        inner_objective_trace=np.asarray(trace),
    )


def _design_matrix(x, obs) -> np.ndarray:
    """Dense (p, n*k) design with r = b - design @ vec(Y), row-major vec."""
    n = obs.shape[1]
    k = x.shape[1]
    if isinstance(obs, EntryObservations):
        g = np.zeros((obs.size, n * k))
        for t in range(obs.size):
            j = obs.col_idx[t]
            g[t, j * k : (j + 1) * k] = x[obs.row_idx[t]]
        return g
    g = np.empty((obs.size, n * k))
    for i, a in enumerate(obs.measurements):
        g[i] = np.asarray(a.T @ x).ravel()
    return g


def reference_qp_solve(x_fixed, obs: ObservationSet, omega: float, ridge: float = 0.0) -> np.ndarray:
    """Test oracle: global minimizer by exhaustive sign-pattern enumeration.

    Every pattern fixes the split of residuals into nonnegative and negative
    parts, i.e. the weights of the equivalent weighted least-squares
    problem; the optimum's own pattern reproduces the optimum exactly, so
    the best candidate over all 2^p patterns is the global minimizer.
    With zero ridge the minimum-norm solution is returned.
    """
    x, _ = _validate_inputs(x_fixed, obs, omega, ridge, None)
    n = obs.shape[1]
    k = x.shape[1]
    p = obs.size
    if p > _QP_MAX_P:
        raise ValueError(f"reference_qp_solve caps p at {_QP_MAX_P}, got {p}")
    if p * n * k > _QP_MAX_PRODUCTS:
        raise ValueError(
            f"instance size p*n*k = {p * n * k} exceeds cap {_QP_MAX_PRODUCTS}"
        )
    g = _design_matrix(x, obs)
    b = obs.values
    ridge_x = ridge * float((x * x).sum()) if ridge else 0.0

    best_val = np.inf
    best = None
    bits = (1 << np.arange(p)).astype(np.int64)
    for code in range(1 << p):
        nonneg = (code & bits) != 0
        w = np.where(nonneg, omega, 1.0 - omega)
        if ridge:
            normal = g.T @ (w[:, None] * g)
            normal[np.arange(n * k), np.arange(n * k)] += ridge
            z = np.linalg.solve(normal, g.T @ (w * b))
        else:
            sw = np.sqrt(w)
            z = np.linalg.lstsq(sw[:, None] * g, sw * b, rcond=None)[0]
        r = b - g @ z
        val = float(np.dot(asymmetric_weights(r, omega) * r, r))
        if ridge:
            val += ridge * float(z @ z) + ridge_x
        if val < best_val:
            best_val = val
            best = z
    return best.reshape(n, k)
