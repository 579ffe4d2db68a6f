"""End-to-end solver: SVD initialization, alternating outer loop, prediction.

The outer loop alternates exact minimizations over the two factors, each an
inner convex subproblem solved by :mod:`emfkit.subsolver`.  Initialization
is the top-k SVD of the weighted measurement sum (for entry observations,
the zero-filled matrix of observed values), computed by seeded randomized
subspace iteration.  QR re-orthonormalization between half-steps is off by
default: the iterate products with and without it coincide, so it is kept
only behind a flag for equivalence testing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    EmfConfig,
    EntryObservations,
    FactorPair,
    ObservationSet,
    SolveReport,
    StopReason,
    product_entry,
)
from .loss import gradient_y, objective
from .rng import Pcg32
from .subsolver import qr_orthonormalize, solve_y

# Stream id of the initialization's random test matrix; other stream ids
# live in emfkit.synth.  Any fixed distinct constants work.
INIT_STREAM = 11
_SV_TOL = 1e-9
_MAX_POWER_ITERS = 500
_RECONSTRUCT_CAP = 50_000_000


class DegenerateInitError(RuntimeError):
    """The weighted measurement sum is zero: no usable initialization."""


@dataclass(frozen=True)
class InitTriple:
    """Top-k singular triple (x0 orthonormal, d0 non-increasing, y0 orthonormal)."""

    x0: np.ndarray
    d0: np.ndarray
    y0: np.ndarray


def measurement_sum(obs: ObservationSet):
    """sum_i b_i A_i; sparse for entry observations, dense otherwise."""
    if isinstance(obs, EntryObservations):
        return obs.to_sparse()
    return obs.weighted_sum()


def _orthonormalize(a: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(a)
    return q


def svd_init(obs: ObservationSet, k: int, seed: int) -> InitTriple:
    """Deterministic top-k SVD of the weighted measurement sum.

    Randomized subspace iteration with oversampling, run until the retained
    singular value estimates are stable to ~1e-9 relative on two
    consecutive checks.  The test matrix comes from the package generator,
    so results are reproducible bit-for-bit given the seed.

    Column signs are canonicalized (largest-magnitude entry of each x0
    column is nonnegative, y0 flipped along) for determinism.  An all-zero
    input yields the documented degenerate triple d0 = 0.
    """
    m, n = obs.shape
    if not 1 <= k <= min(m, n):
        raise ValueError(f"rank k={k} must satisfy 1 <= k <= min{(m, n)}")
    s = measurement_sum(obs)
    st = s.T
    ell = min(min(m, n), k + 8)
    rng = Pcg32(seed, INIT_STREAM)
    q = _orthonormalize(np.asarray(s @ rng.normal(n * ell).reshape(n, ell)))
    prev = None
    stable_checks = 0
    for _ in range(_MAX_POWER_ITERS):
        q = _orthonormalize(np.asarray(st @ q))   # n x ell
        q = _orthonormalize(np.asarray(s @ q))    # m x ell
        svals = np.linalg.svd(np.asarray(st @ q), compute_uv=False)[:k]
        if prev is not None:
            if np.all(np.abs(svals - prev) <= _SV_TOL * (svals + 1e-300)):
                stable_checks += 1
                if stable_checks >= 2:
                    prev = svals
                    break
            else:
                stable_checks = 0
        prev = svals
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
    """
    t_start = time.perf_counter()
    init = svd_init(obs, config.rank, config.seed)
    scale = 1.0
    if config.init_scale_by_inverse_rate and isinstance(obs, EntryObservations):
        # deviates from the plain weighted-sum initialization; off by default
        scale = (obs.shape[0] * obs.shape[1]) / obs.size
    d0 = init.d0 * scale
    if d0[0] <= 1e-300:
        raise DegenerateInitError("all-zero measurement sum; nothing to initialize from")

    omega, ridge = config.omega, config.ridge
    caps = dict(max_inner=config.max_inner, tol_gradient=config.tol_gradient)
    obs_t = obs.transposed

    x_bar = init.x0
    y_warm = init.y0 * d0
    factors = FactorPair(x_bar, y_warm)
    trace = [objective(obs, factors, omega, ridge)]
    inner_iters: list[int] = []
    uncertified = 0
    stop = StopReason.MAX_ITERATIONS

    for _ in range(config.max_outer):
        res_y = solve_y(x_bar, obs, omega, ridge, warm_start=y_warm, **caps)
        y_half = res_y.solution
        if config.use_qr:
            y_side, r_y = qr_orthonormalize(y_half)
            x_warm = x_bar @ r_y.T
        else:
            y_side, x_warm = y_half, x_bar
        res_x = solve_y(y_side, obs_t, omega, ridge, warm_start=x_warm, **caps)
        x_half = res_x.solution

        inner_iters += [res_y.inner_iterations, res_x.inner_iterations]
        uncertified += (not res_y.converged) + (not res_x.converged)
        factors = FactorPair(x_half, y_side)
        # the x-subproblem's final objective IS the full objective at this pair
        trace.append(float(res_x.inner_objective_trace[-1]))

        if config.use_qr:
            x_bar, r_x = qr_orthonormalize(x_half)
            y_warm = y_side @ r_x.T
        else:
            x_bar, y_warm = x_half, y_side

        prev, cur = trace[-2], trace[-1]
        if (prev - cur) / max(prev, 1e-300) < config.tol_objective:
            stop = StopReason.TOLERANCE_OBJECTIVE
            break
        # res_x certifies the x-gradient at exactly this pair
        gx = res_x.final_gradient_norm
        gy = np.linalg.norm(gradient_y(obs, factors, omega, ridge))
        if gx < config.tol_gradient and gy < config.tol_gradient:
            stop = StopReason.TOLERANCE_GRADIENT
            break

    return SolveReport(
        factors=factors,
        objective_trace=np.asarray(trace),
        inner_iters=inner_iters,
        converged=stop is not StopReason.MAX_ITERATIONS,
        stop_reason=stop,
        wall_seconds=time.perf_counter() - t_start,
        uncertified_solves=uncertified,
    )


def predict(f: FactorPair, i: int, j: int) -> float:
    """Estimate of entry (i, j): the fitted conditional expectile at that cell."""
    return product_entry(f, i, j)


def reconstruct(f: FactorPair, max_elements: int = _RECONSTRUCT_CAP) -> np.ndarray:
    """Materialize the full product x @ y.T (guarded by an element cap)."""
    m, n = f.shape
    if m * n > max_elements:
        raise ValueError(
            f"reconstruction of a {m}x{n} matrix exceeds the cap of {max_elements} elements"
        )
    return f.x @ f.y.T
