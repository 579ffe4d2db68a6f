"""End-to-end solver: SVD initialization and the alternating outer loop.

The outer loop alternates minimizations over the two factors, each an
inner convex subproblem solved by :mod:`emfkit.subsolver`.  Initialization
is the top-k SVD of the weighted measurement sum (for entry observations,
the zero-filled matrix of observed values), approximated by seeded
randomized subspace iteration with a fixed number of power iterations.  The
outer loop computes no objective or gradient of its own: the first y
half-step opens with the objective at the initialization, each x half-step
ends with the objective at its pair and certifies the x-gradient there, and
the next y half-step starts with the y-gradient.

Sweep 1 runs exact half-steps, each to its certificate or MAX_INNER
rounds.  While the sweep before gained more than EARLY_DECREASE of the
objective, relative, a sweep runs one sign-set round per half-step; every
round descends, so such a sweep is a block successive minimization step
(Razaviyayn, Hong & Luo, SIAM J. Optim. 2013), Newey & Powell's reweighted
least squares taken one step per block.  The first sweep that gains at most
EARLY_DECREASE switches the fit to exact half-steps for good, so the end
game and the objective stop are those of exact alternating minimization.
An entry set at ridge 0 with a row or column of exactly rank observations
runs exact half-steps throughout: that row or column is interpolated, its
residuals are rounding noise, and one round would read its weights off
that noise.  At omega = 0.5 every half-step certifies after one round, so
the schedule changes nothing there.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial

import numpy as np

from .core import (
    EmfConfig,
    EntryObservations,
    FactorPair,
    ObservationSet,
    SolveReport,
    StopReason,
)
from .rng import Pcg32
from .subsolver import one_blas_thread, solve_y

# Stream id of the initialization's random test matrix; other stream ids
# live in emfkit.synth.  Any fixed distinct constants work.
INIT_STREAM = 11
# Most sign-set rounds an exact half-step of fit runs; one that stops here
# is counted in SolveReport.uncertified_solves
MAX_INNER = 100
# Relative objective decrease per sweep above which fit's next sweep runs
# one sign-set round per half-step; the first sweep at or below it switches
# the fit to exact half-steps for good
EARLY_DECREASE = 1e-3
_POWER_ITERS = 4


class DegenerateInitError(RuntimeError):
    """The weighted measurement sum is zero: no usable initialization."""


def svd_init(obs: ObservationSet, k: int, seed: int) -> FactorPair:
    """The pair a fit starts from: the deterministic top-k SVD x0 d0 y0^T of
    the weighted measurement sum, as FactorPair(x0, y0 d0).

    Randomized subspace iteration with oversampling and a fixed q =
    _POWER_ITERS power iterations (Halko, Martinsson & Tropp, "Finding
    structure with randomness", SIAM Review 2011, use q = 1-2): the
    alternating loop needs a starting subspace close enough to the top-k
    one (Jain, Netrapalli & Sanghavi, STOC 2013), not settled singular
    values.  The test matrix comes from the package generator, so results
    are reproducible bit-for-bit given the seed.

    The sum S enters only through S q and S^T q, which for an entry set are
    taken over the buckets of obs.transposed and obs (:func:`_bucket_product`),
    and, as in fit and solve_y, with OpenBLAS held at one thread
    (:func:`one_blas_thread`).

    x0 is orthonormal, so the singular values d0 (non-increasing) are the
    column norms of the returned y.  Column signs are canonicalized
    (largest-magnitude entry of each x0 column is nonnegative, y0 flipped
    along) for determinism.  An all-zero sum (top singular value at most
    1e-300) raises DegenerateInitError.
    """
    m, n = obs.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"rank k={k} must satisfy 1 <= k <= min{(m, n)}")
    if isinstance(obs, EntryObservations):
        s_times, st_times = (partial(_bucket_product, v) for v in (obs.transposed, obs))
    else:
        s = obs.adjoint(obs.values)
        s_times, st_times = partial(np.matmul, s), partial(np.matmul, s.T)
    ell = min(min(m, n), k + 8)
    rng = Pcg32(seed, INIT_STREAM)
    with one_blas_thread() if isinstance(obs, EntryObservations) else nullcontext():
        q = np.linalg.qr(s_times(rng.normal(n * ell).reshape(n, ell)))[0]
        for _ in range(_POWER_ITERS):
            q = np.linalg.qr(st_times(q))[0]  # n x ell
            q = np.linalg.qr(s_times(q))[0]   # m x ell
        ub, d, vt = np.linalg.svd(st_times(q).T, full_matrices=False)
        if d[0] <= 1e-300:
            raise DegenerateInitError("all-zero measurement sum; nothing to initialize from")
        x0 = q @ ub[:, :k]
    sign = np.where(x0[np.abs(x0).argmax(axis=0), np.arange(k)] < 0, -1.0, 1.0)
    return FactorPair(x0 * sign, vt[:k].T * d[:k] * sign)


def _bucket_product(obs: EntryObservations, q) -> np.ndarray:
    """S^T q for the zero-filled matrix S of obs's values, bucket by bucket:
    each bucket's rows of q are one take into a k-major block, as solve_y
    gathers its design, and padding slots (row -1) wrap to a zero row."""
    qt = np.append(q.T, np.zeros((q.shape[1], 1)), axis=1)
    out = np.empty((obs.shape[1], q.shape[1]))
    for b in obs.column_buckets:
        rows = qt.take(b.rows, axis=1, mode="wrap").transpose(1, 0, 2)
        out[b.cols] = np.matmul(rows, b.values[:, :, None])[:, :, 0]
    return out


def fit(obs: ObservationSet, config: EmfConfig) -> SolveReport:
    """Alternating minimization from the SVD initialization.

    Records the objective at the initialization and after every outer
    iteration; stops early once the relative objective decrease falls below
    tol_objective or both partial gradient norms fall below tol_gradient.
    Sweeps follow the module's schedule; the objective stop reads only a
    sweep of exact half-steps, or of one-round half-steps that both
    certified their solutions, and only an exact half-step that stops at
    MAX_INNER rounds counts as uncertified.
    The objective at the initialization is the first y half-step's opening
    objective.  A sweep's y-gradient is read from the start of the next y
    half-step, which runs no round and is discarded if the sweep's pair is
    returned; after the last allowed sweep that half-step only opens
    (max_inner = 0), and only if the x-gradient passed.

    An entry fit holds OpenBLAS at one thread, from svd_init on, for the
    reasons :func:`~emfkit.subsolver.one_blas_thread` gives; a general fit
    runs inline and keeps BLAS threads for its Gram products.
    """
    with one_blas_thread() if isinstance(obs, EntryObservations) else nullcontext():
        start = svd_init(obs, config.rank, config.seed)
        omega, ridge, tol = config.omega, config.ridge, config.tol_gradient
        obs_t = obs.transposed
        x, y = start.x, start.y
        trace: list[float] = []
        inner_iters: list[int] = []
        uncertified = 0
        stop = StopReason.MAX_ITERATIONS
        x_passed = False
        # at ridge 0 a row or column with exactly rank observations (fewer
        # raise in solve_y) is interpolated: its residuals are rounding
        # noise, and one round would read its weights off that noise, so
        # such a fit runs exact half-steps throughout
        settled = isinstance(obs, EntryObservations) and ridge == 0.0 and min(
            obs.col_counts.min(), obs_t.col_counts.min()) <= config.rank

        for sweep in range(config.max_outer + 1):
            # after the last allowed sweep the y half-step only opens, for the
            # start that the gradient test (or, at max_outer = 0, trace[0]) reads
            last = sweep == config.max_outer
            if last and sweep and not x_passed:
                break
            exact = settled or not sweep
            cap = MAX_INNER if exact else 1
            res_y = solve_y(x, obs, omega, ridge, warm_start=y,
                            max_inner=0 if last else cap, tol_gradient=tol)
            if not sweep:
                trace.append(float(res_y.inner_objective_trace[0]))
            if x_passed and res_y.start_gradient_norm < tol:
                stop = StopReason.TOLERANCE_GRADIENT
                break
            if last:
                break
            y = res_y.solution
            res_x = solve_y(y, obs_t, omega, ridge, warm_start=x,
                            max_inner=cap, tol_gradient=tol)
            x = res_x.solution

            inner_iters += [res_y.inner_iterations, res_x.inner_iterations]
            if exact:
                uncertified += (not res_y.converged) + (not res_x.converged)
            # the x-subproblem's final objective IS the full objective at this pair
            trace.append(float(res_x.inner_objective_trace[-1]))

            prev, cur = trace[-2], trace[-1]
            decrease = (prev - cur) / max(prev, 1e-300)
            # a one-round sweep is read only where both half-steps certified
            # their solutions, as every one does at omega = 0.5
            if (exact or res_y.converged and res_x.converged) and decrease < config.tol_objective:
                stop = StopReason.TOLERANCE_OBJECTIVE
                break
            # res_x certifies the x-gradient at exactly this pair
            x_passed = res_x.final_gradient_norm < tol
            settled = settled or decrease <= EARLY_DECREASE

        return SolveReport(
            factors=FactorPair(x, y),
            objective_trace=np.asarray(trace),
            inner_iters=inner_iters,
            stop_reason=stop,
            uncertified_solves=uncertified,
        )

