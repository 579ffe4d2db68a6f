"""Reference alternating loop the tests compare emfkit.emf.fit with."""

from contextlib import nullcontext

import numpy as np

from emfkit.core import EntryObservations, FactorPair, StopReason
from emfkit import emf
from emfkit.subsolver import one_blas_thread, solve_y
from oracle import gradient_y


def _orthonormalize(a):
    """Reduced QR of a with a nonnegative diagonal of r."""
    q, r = np.linalg.qr(a)
    sign = np.where(np.diag(r) < 0, -1.0, 1.0)
    return q * sign, r * sign[:, None]


def alternate(obs, config, qr=False, start=None):
    """fit's loop written plainly, with the y-gradient computed by
    oracle.gradient_y after every sweep whose x-gradient passed.  As in fit,
    trace[0] is the first y half-step's opening objective, and the sweeps
    follow fit's schedule: exact half-steps in sweep 1, one round per
    half-step after a sweep whose relative objective decrease is above
    emf.EARLY_DECREASE, exact half-steps for good from the first sweep at or
    below it, and exact ones throughout for an entry set at ridge 0 with a
    row or column of at most rank observations.

    With qr each half-step's solution is re-orthonormalized before the other
    half-step, the warm start taking its R: the pair (X R^-1, Y R^T) has the
    same product, as in the analysis of alternating minimization (Jain,
    Netrapalli & Sanghavi, STOC 2013).  start, a FactorPair, replaces
    emf.svd_init's pair.  An entry set runs under fit's OpenBLAS hold.
    Returns (factors, objective trace, inner_iters, stop reason).
    """
    with one_blas_thread() if isinstance(obs, EntryObservations) else nullcontext():
        omega, ridge, tol = config.omega, config.ridge, config.tol_gradient
        m, n = obs.shape
        settled = isinstance(obs, EntryObservations) and not ridge and min(
            np.bincount(obs.row_idx, minlength=m).min(),
            np.bincount(obs.col_idx, minlength=n).min()) <= config.rank
        factors = start or emf.svd_init(obs, config.rank, config.seed)
        x, y = factors.x, factors.y
        trace, inner = [], []
        for sweep in range(config.max_outer):
            exact = settled or not sweep
            caps = dict(max_inner=emf.MAX_INNER if exact else 1, tol_gradient=tol)
            res_y = solve_y(x, obs, omega, ridge, warm_start=y, **caps)
            trace = trace or [float(res_y.inner_objective_trace[0])]
            y = res_y.solution
            if qr:
                y, r = _orthonormalize(y)
                x = x @ r.T
            res_x = solve_y(y, obs.transposed, omega, ridge, warm_start=x, **caps)
            inner += [res_y.inner_iterations, res_x.inner_iterations]
            factors = FactorPair(res_x.solution, y)
            trace.append(float(res_x.inner_objective_trace[-1]))
            x = res_x.solution
            if qr:
                x, r = _orthonormalize(x)
                y = y @ r.T
            decrease = (trace[-2] - trace[-1]) / max(trace[-2], 1e-300)
            if (exact or res_y.converged and res_x.converged) and decrease < config.tol_objective:
                return factors, trace, inner, StopReason.TOLERANCE_OBJECTIVE
            if res_x.final_gradient_norm < tol and (
                np.linalg.norm(gradient_y(obs, factors, omega, ridge)) < tol
            ):
                return factors, trace, inner, StopReason.TOLERANCE_GRADIENT
            settled = settled or decrease <= emf.EARLY_DECREASE
        return factors, trace, inner, StopReason.MAX_ITERATIONS
