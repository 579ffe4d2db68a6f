"""References the tests check emfkit against.

The residuals, the objective and its y-gradient, written plainly through
the observation set's apply and adjoint; the objective's central finite
differences; plain alternating least squares; the scalar bounded draw that
Pcg32.permutation_prefix batches; and an exhaustive QP oracle for
emfkit.subsolver.solve_y.  The oracle enumerates all 2^p residual sign
patterns of the split-variable formulation (positive and negative residual
parts) and keeps the candidate with the lowest true objective.  Intended
for tiny instances only.
"""

import numpy as np

from emfkit.core import EntryObservations, FactorPair, ObservationSet, as_matrix
from emfkit.emf import svd_init
from emfkit.loss import asymmetric_weights

_QP_MAX_P = 20
_QP_MAX_PRODUCTS = 100_000


def _check_dims(obs: ObservationSet, f: FactorPair):
    if obs.shape != f.shape:
        raise ValueError(
            f"observation shape {obs.shape} does not match factor shape {f.shape}"
        )


def residuals(obs: ObservationSet, f: FactorPair) -> np.ndarray:
    """Residual vector r_i = b_i - <A_i, x y^T>."""
    _check_dims(obs, f)
    return obs.values - obs.apply(f)


def objective(obs: ObservationSet, f: FactorPair, omega: float, ridge: float = 0.0) -> float:
    """Sum of asymmetric losses over residuals plus ridge * (|x|_F^2 + |y|_F^2)."""
    if not ridge >= 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    r = residuals(obs, f)
    w = asymmetric_weights(r, omega)
    return float(np.dot(w * r, r)) + ridge * (float(np.dot(f.x.ravel(), f.x.ravel()))
                                              + float(np.dot(f.y.ravel(), f.y.ravel())))


def gradient_y(obs: ObservationSet, f: FactorPair, omega: float, ridge: float = 0.0) -> np.ndarray:
    """Gradient of :func:`objective` with respect to the y factor (n-by-k).

    Equals -2 * sum_i w_i r_i A_i^T x plus 2 * ridge * y; well defined
    everywhere since the loss is C^1.  The x gradient is
    ``gradient_y(obs.transposed, FactorPair(f.y, f.x), omega, ridge)``.
    """
    r = residuals(obs, f)
    w = asymmetric_weights(r, omega)
    return obs.adjoint(-2.0 * w * r).T @ f.x + 2.0 * ridge * f.y


def fd_gradient(obs: ObservationSet, f: FactorPair, omega: float, wrt: str,
                ridge: float = 0.0, h: float = 1e-6) -> np.ndarray:
    """Central differences, step h, of :func:`objective` in each entry of the
    factor wrt ("x" or "y")."""
    base = f.y if wrt == "y" else f.x
    g = np.zeros_like(base)
    for idx in np.ndindex(*base.shape):
        plus, minus = base.copy(), base.copy()
        plus[idx] += h
        minus[idx] -= h
        if wrt == "y":
            fp, fm = FactorPair(f.x, plus), FactorPair(f.x, minus)
        else:
            fp, fm = FactorPair(plus, f.y), FactorPair(minus, f.y)
        g[idx] = (objective(obs, fp, omega, ridge) - objective(obs, fm, omega, ridge)) / (2 * h)
    return g


def als_reference(obs: EntryObservations, k: int, seed: int, iters: int,
                  tol: float | None = None) -> float:
    """Plain alternating least squares from svd_init's pair, per-row lstsq
    with no weight machinery: 0.5 * SSR after iters sweeps, or after the
    first sweep whose relative SSR decrease is at most tol."""
    start = svd_init(obs, k, seed)
    x, y = start.x, start.y
    m, n = obs.shape

    def ssr():
        r = obs.values - np.einsum("pk,pk->p", x[obs.row_idx], y[obs.col_idx])
        return float(r @ r)

    prev = ssr()
    for _ in range(iters):
        for j in range(n):
            sel = obs.col_idx == j
            y[j] = np.linalg.lstsq(x[obs.row_idx[sel]], obs.values[sel], rcond=None)[0]
        for i in range(m):
            sel = obs.row_idx == i
            x[i] = np.linalg.lstsq(y[obs.col_idx[sel]], obs.values[sel], rcond=None)[0]
        cur = ssr()
        if tol is not None and prev - cur <= tol * max(prev, 1e-300):
            break
        prev = cur
    return 0.5 * ssr()


def below(g, bound: int) -> int:
    """Uniform integer in [0, bound) from the Pcg32 g without modulo bias:
    the first raw draw not below 2^32 mod bound, reduced mod bound."""
    if not 0 < bound <= 1 << 32:
        raise ValueError("bound must be in [1, 2**32]")
    threshold = (1 << 32) % bound
    while True:
        r = g.next_uint32()
        if r >= threshold:
            return r % bound


def design(obs: ObservationSet, x) -> np.ndarray:
    """The (p, n, k) rows g_i = A_i^T x, so <A_i, x y^T> = <g_i, y>.

    An entry set's row for cell (r, c) is x's row r at row c, zero elsewhere.
    """
    if not isinstance(obs, EntryObservations):
        return obs.design(x)
    g = np.zeros((obs.size, obs.shape[1], x.shape[1]))
    g[np.arange(obs.size), obs.col_idx] = x[obs.row_idx]
    return g


def reference_qp_solve(x_fixed, obs: ObservationSet, omega: float, ridge: float = 0.0) -> np.ndarray:
    """Global minimizer by exhaustive sign-pattern enumeration.

    Every pattern fixes the split of residuals into nonnegative and negative
    parts, i.e. the weights of the equivalent weighted least-squares
    problem; the optimum's own pattern reproduces the optimum exactly, so
    the best candidate over all 2^p patterns is the global minimizer.
    With zero ridge the minimum-norm solution is returned.
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
    n = obs.shape[1]
    k = x.shape[1]
    p = obs.size
    if p > _QP_MAX_P:
        raise ValueError(f"reference_qp_solve caps p at {_QP_MAX_P}, got {p}")
    if p * n * k > _QP_MAX_PRODUCTS:
        raise ValueError(
            f"instance size p*n*k = {p * n * k} exceeds cap {_QP_MAX_PRODUCTS}"
        )
    # r = b - g @ vec(Y), row-major vec
    g = design(obs, x).reshape(p, n * k)
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
