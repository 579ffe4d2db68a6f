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
from dataclasses import dataclass

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
_RECONSTRUCT_CAP = 50_000_000


class DegenerateInitError(RuntimeError):
    """The weighted measurement sum is zero: no usable initialization."""


@dataclass(frozen=True)
class InitTriple:
    """Top-k singular triple (x0 orthonormal, d0 non-increasing, y0 orthonormal)."""

    x0: np.ndarray
    d0: np.ndarray
    y0: np.ndarray


def _orthonormalize(a: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(a)
    return q


def svd_init(obs: ObservationSet, k: int, seed: int) -> InitTriple:
    """Deterministic top-k SVD of the weighted measurement sum.

    Randomized subspace iteration with oversampling and a fixed q =
    _POWER_ITERS power iterations (Halko, Martinsson & Tropp, "Finding
    structure with randomness", SIAM Review 2011, use q = 1-2): the
    alternating loop needs a starting subspace close enough to the top-k
    one (Jain, Netrapalli & Sanghavi, STOC 2013), not settled singular
    values.  The test matrix comes from the package generator, so results
    are reproducible bit-for-bit given the seed.

    Column signs are canonicalized (largest-magnitude entry of each x0
    column is nonnegative, y0 flipped along) for determinism.  An all-zero
    input yields the documented degenerate triple d0 = 0.
    """
    m, n = obs.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"rank k={k} must satisfy 1 <= k <= min{(m, n)}")
    s = obs.adjoint(obs.values)
    st = s.T
    ell = min(min(m, n), k + 8)
    rng = Pcg32(seed, INIT_STREAM)
    q = _orthonormalize(np.asarray(s @ rng.normal(n * ell).reshape(n, ell)))
    for _ in range(_POWER_ITERS):
        q = _orthonormalize(np.asarray(st @ q))   # n x ell
        q = _orthonormalize(np.asarray(s @ q))    # m x ell
    small = np.asarray(st @ q).T  # ell x n projection of s
    ub, d, vt = np.linalg.svd(small, full_matrices=False)
    x0 = q @ ub[:, :k]
    d0 = d[:k].copy()
    y0 = vt[:k].T.copy()
    for j in range(k):
        lead = np.argmax(np.abs(x0[:, j]))
        if x0[lead, j] < 0:
            x0[:, j] *= -1.0
            y0[:, j] *= -1.0
    return InitTriple(x0=x0, d0=d0, y0=y0)


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

    An entry fit holds OpenBLAS at one thread, from svd_init on: its
    half-steps run on the bucket pool, whose cores idle OpenBLAS workers
    would spin on.  A general fit runs inline and keeps BLAS threads for
    its Gram products.
    """
    hold = one_blas_thread() if isinstance(obs, EntryObservations) else nullcontext()
    with hold:
        init = svd_init(obs, config.rank, config.seed)
        if init.d0[0] <= 1e-300:
            raise DegenerateInitError("all-zero measurement sum; nothing to initialize from")

        omega, ridge, tol = config.omega, config.ridge, config.tol_gradient
        obs_t = obs.transposed

        x = init.x0
        y = init.y0 * init.d0
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


def reconstruct(f: FactorPair) -> np.ndarray:
    """Materialize the full product x @ y.T (at most _RECONSTRUCT_CAP elements)."""
    m, n = f.shape
    if m * n > _RECONSTRUCT_CAP:
        raise ValueError(
            f"reconstruction of a {m}x{n} matrix exceeds the cap of {_RECONSTRUCT_CAP} elements"
        )
    return f.x @ f.y.T
