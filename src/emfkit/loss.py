"""Asymmetric least-squares weights and the 1-D expectile.

The loss on a residual t is ``w(t) * t**2`` with ``w(t) = omega`` for
``t >= 0`` and ``1 - omega`` otherwise (ties at zero count as nonnegative).
It is convex and continuously differentiable; omega = 0.5 recovers plain
least squares up to the constant factor 1/2.  The objective and its
gradient are evaluated by the half-steps of :mod:`emfkit.subsolver`.
"""

from __future__ import annotations

import numpy as np


def _check_omega(omega: float):
    if not 0.0 < omega < 1.0:
        raise ValueError(f"omega must be in (0, 1), got {omega}")


def asymmetric_weights(t: np.ndarray, omega: float) -> np.ndarray:
    """Weights applied to the squared residuals t: omega where t >= 0, else 1 - omega."""
    _check_omega(omega)
    # a two-entry table indexed in place by the uint8 sign view: no intp copy of t
    return np.array([1.0 - omega, omega])[(np.asarray(t) >= 0.0).view(np.uint8)]


def scalar_expectile(values, omega: float) -> float:
    """The omega-expectile of a sample: argmin_m sum_i w(v_i - m) (v_i - m)^2.

    Solved exactly in one sorted scan.  With the c smallest values below m
    the first-order condition is num[c] - denom[c] * m = 0, which falls
    through zero between the c-th and (c+1)-th smallest values, c counting
    the sorted values at which it is still positive.  There m is the
    weighted mean of that segment's sign pattern, clipped to the segment,
    so it lies in [min, max] and a constant sample returns its value.  The
    scan runs on the sample scaled by a power of two to below 1 in
    magnitude, so its sums cannot overflow; in the normal range the scaling
    is exact.
    """
    _check_omega(omega)
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("scalar_expectile needs a non-empty sample")
    if not np.isfinite(v).all():
        raise ValueError("sample contains non-finite values")
    e = int(np.frexp(np.abs(v).max())[1])
    v = np.ldexp(v, -e)
    s = np.sort(v)
    low = np.concatenate([[0.0], np.cumsum(s)])  # sums of the c smallest
    counts = np.arange(v.size + 1)
    num = (1.0 - omega) * low + omega * (low[-1] - low)
    denom = (1.0 - omega) * counts + omega * (v.size - counts)
    c = int(np.count_nonzero(num[:-1] - denom[:-1] * s > 0.0))
    lo, hi = s[max(c - 1, 0)], s[min(c, v.size - 1)]
    w = asymmetric_weights(v - hi, omega)  # the segment's signs, ties nonnegative
    return float(np.ldexp(np.clip(np.dot(w, v) / w.sum(), lo, hi), e))
