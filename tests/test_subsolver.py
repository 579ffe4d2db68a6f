import numpy as np
import pytest

from emfkit.core import EntryObservations, FactorPair, GeneralObservations
from emfkit.loss import objective, residuals
from emfkit.subsolver import (
    RankDeficientError,
    SingularDesignError,
    qr_orthonormalize,
    reference_qp_solve,
    solve_x,
    solve_y,
)

OMEGAS = (0.05, 0.3, 0.5, 0.7, 0.95)


def entry_instance(rng, m=6, n=3, k=2, per_col=4, values=None):
    """Random completion instance with >= per_col observations per column."""
    rows, cols = [], []
    for j in range(n):
        for i in rng.choice(m, size=per_col, replace=False):
            rows.append(i)
            cols.append(j)
    rows, cols = np.array(rows), np.array(cols)
    if values is None:
        values = rng.randn(rows.size) * 2
    return EntryObservations((m, n), rows, cols, values)


def general_instance(rng, m=4, n=3, p=8):
    mats = [rng.randn(m, n) for _ in range(p)]
    return GeneralObservations((m, n), mats, rng.randn(p))


def weighted_ls_oracle(x, obs, ridge=0.0):
    """Plain least squares per column (the omega = 0.5 limit, weights 0.5)."""
    n = obs.shape[1]
    k = x.shape[1]
    y = np.zeros((n, k))
    for j in range(n):
        sel = obs.col_idx == j
        a = x[obs.row_idx[sel]]
        b = obs.values[sel]
        y[j] = np.linalg.solve(0.5 * a.T @ a + ridge * np.eye(k), 0.5 * a.T @ b)
    return y


def test_noiseless_consistent_system_recovers_exactly():
    rng = np.random.RandomState(0)
    x = rng.randn(6, 2)
    y_true = rng.randn(3, 2)
    obs = entry_instance(rng, values=None)
    obs = EntryObservations(
        obs.shape, obs.row_idx, obs.col_idx,
        np.einsum("pk,pk->p", x[obs.row_idx], y_true[obs.col_idx]),
    )
    res = solve_y(x, obs, omega=0.1)
    assert res.converged
    assert np.allclose(res.solution, y_true, atol=1e-10)
    assert res.final_gradient_norm <= 1e-10
    assert objective(obs, FactorPair(x, res.solution), 0.1) <= 1e-20


def test_half_omega_equals_least_squares():
    rng = np.random.RandomState(1)
    for _ in range(5):
        x = rng.randn(6, 2)
        obs = entry_instance(rng)
        res = solve_y(x, obs, omega=0.5)
        assert np.allclose(res.solution, weighted_ls_oracle(x, obs), atol=1e-10)
        res_r = solve_y(x, obs, omega=0.5, ridge=0.3)
        assert np.allclose(res_r.solution, weighted_ls_oracle(x, obs, ridge=0.3), atol=1e-10)


@pytest.mark.parametrize("omega", OMEGAS)
def test_entry_solver_matches_reference_qp(omega):
    rng = np.random.RandomState(int(omega * 100))
    for _ in range(4):
        x = rng.randn(6, 2)
        obs = entry_instance(rng)
        ref = reference_qp_solve(x, obs, omega)
        res = solve_y(x, obs, omega)
        assert np.linalg.norm(ref - res.solution) <= 1e-6


@pytest.mark.parametrize("omega", OMEGAS)
def test_general_solver_matches_reference_qp(omega):
    rng = np.random.RandomState(100 + int(omega * 100))
    for _ in range(3):
        x = rng.randn(4, 2)
        gobs = general_instance(rng)
        ref = reference_qp_solve(x, gobs, omega)
        res = solve_y(x, gobs, omega)
        assert np.linalg.norm(ref - res.solution) <= 1e-6


def test_reference_qp_half_omega_matches_ls():
    rng = np.random.RandomState(2)
    x = rng.randn(6, 2)
    obs = entry_instance(rng)
    assert np.allclose(reference_qp_solve(x, obs, 0.5), weighted_ls_oracle(x, obs), atol=1e-8)


def test_single_measurement_min_norm_interpolation():
    rng = np.random.RandomState(3)
    gobs = GeneralObservations((3, 3), [rng.randn(3, 3)], [1.7])
    x = rng.randn(3, 2)
    res = solve_y(x, gobs, 0.3)
    ref = reference_qp_solve(x, gobs, 0.3)
    assert np.allclose(res.solution, ref, atol=1e-8)
    assert abs(residuals(gobs, FactorPair(x, res.solution))[0]) <= 1e-10
    # with ridge both give the (unique) ridge solution
    res_r = solve_y(x, gobs, 0.3, ridge=0.5)
    ref_r = reference_qp_solve(x, gobs, 0.3, ridge=0.5)
    assert np.allclose(res_r.solution, ref_r, atol=1e-8)


def test_transpose_duality():
    rng = np.random.RandomState(4)
    for _ in range(4):
        obs = entry_instance(rng, m=5, n=4, k=2, per_col=3)
        # make rows well observed too so the transposed design is full rank
        if (obs.row_counts < 2).any():
            continue
        y_fixed = rng.randn(4, 2)
        a = solve_x(y_fixed, obs, 0.3)
        b = solve_y(y_fixed, obs.transposed, 0.3)
        assert np.allclose(a.solution, b.solution, atol=1e-12)
        assert np.array_equal(a.sign_pattern, b.sign_pattern)


def test_solve_x_noiseless_recovery():
    rng = np.random.RandomState(5)
    x_true = rng.randn(6, 2)
    y = rng.randn(3, 2)
    rows = np.repeat(np.arange(6), 3)
    cols = np.tile(np.arange(3), 6)
    vals = np.einsum("pk,pk->p", x_true[rows], y[cols])
    obs = EntryObservations((6, 3), rows, cols, vals)
    res = solve_x(y, obs, omega=0.7)
    assert np.allclose(res.solution, x_true, atol=1e-10)


def test_warm_start_never_worse():
    rng = np.random.RandomState(6)
    for _ in range(5):
        x = rng.randn(6, 2)
        obs = entry_instance(rng)
        warm = rng.randn(3, 2)
        res = solve_y(x, obs, 0.2, warm_start=warm)
        assert objective(obs, FactorPair(x, res.solution), 0.2) <= (
            objective(obs, FactorPair(x, warm), 0.2) * (1 + 1e-12)
        )


def test_inner_objective_trace_monotone():
    rng = np.random.RandomState(7)
    for _ in range(10):
        x = rng.randn(8, 3)
        obs = entry_instance(rng, m=8, n=4, k=3, per_col=5)
        res = solve_y(x, obs, 0.15, warm_start=rng.randn(4, 3) * 3)
        tr = res.inner_objective_trace
        assert np.all(tr[1:] <= tr[:-1] * (1 + 1e-12) + 1e-300)


def test_optimality_certificate_and_pattern_consistency():
    rng = np.random.RandomState(8)
    x = rng.randn(6, 2)
    obs = entry_instance(rng)
    res = solve_y(x, obs, 0.25)
    assert res.converged
    r = residuals(obs, FactorPair(x, res.solution))
    assert np.array_equal(res.sign_pattern, r >= 0.0)
    assert res.final_gradient_norm <= 1e-8 * (1 + 1.0)


def test_singular_design_raised_without_ridge():
    rng = np.random.RandomState(9)
    x = rng.randn(4, 2)
    obs = EntryObservations((4, 2), [0, 1, 2], [0, 0, 1], [1.0, 2.0, 3.0])
    with pytest.raises(SingularDesignError):
        solve_y(x, obs, 0.5)
    # ridge rescues the same instance
    res = solve_y(x, obs, 0.5, ridge=1e-3)
    assert res.converged


def test_completion_decomposition_equals_coupled_oracle():
    # per-row solving (the fast path) equals the coupled QP on the same data
    rng = np.random.RandomState(10)
    for _ in range(4):
        x = rng.randn(6, 2)
        obs = entry_instance(rng, m=6, n=3, k=2, per_col=4)
        coupled = reference_qp_solve(x, obs, 0.2)
        per_row = solve_y(x, obs, 0.2).solution
        assert np.linalg.norm(coupled - per_row) <= 1e-10


def test_reference_qp_caps():
    rng = np.random.RandomState(11)
    x = rng.randn(30, 2)
    rows = np.repeat(np.arange(30), 1)
    obs = EntryObservations((30, 1), rows[:25], np.zeros(25, dtype=int), rng.randn(25))
    with pytest.raises(ValueError, match="caps p"):
        reference_qp_solve(x, obs, 0.5)


def test_qr_orthonormalize_properties():
    # already orthonormal with positive diagonal: identity transformation
    q0 = np.linalg.qr(np.random.RandomState(12).randn(5, 3))[0]
    # force positive diagonal convention on the input
    q0 = q0 * np.sign(np.diag(q0[:3]))
    q, r = qr_orthonormalize(q0)
    assert np.allclose(q, q0, atol=1e-12)
    assert np.allclose(r, np.eye(3), atol=1e-12)

    q, r = qr_orthonormalize(np.array([[2.0, 0.0], [0.0, 3.0]]))
    assert np.allclose(q, np.eye(2), atol=1e-15)
    assert np.allclose(r, np.diag([2.0, 3.0]), atol=1e-15)

    rng = np.random.RandomState(13)
    for _ in range(10):
        a = rng.randn(8, 3)
        q, r = qr_orthonormalize(a)
        assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-12
        assert np.abs(q @ r - a).max() <= 1e-12 * max(1.0, np.abs(a).max())
        assert (np.diag(r) >= 0).all()


def test_qr_orthonormalize_rank_deficient():
    a = np.ones((4, 2))
    with pytest.raises(RankDeficientError):
        qr_orthonormalize(a)


def test_max_inner_returns_unconverged_flag():
    rng = np.random.RandomState(14)
    x = rng.randn(8, 3)
    obs = entry_instance(rng, m=8, n=4, k=3, per_col=5)
    res = solve_y(x, obs, 0.05, warm_start=rng.randn(4, 3) * 10, max_inner=1)
    # one round cannot certify stability from a far-off warm start
    assert res.inner_iterations == 1
    assert not res.converged


def column_degree_instance(rng, m, degrees):
    """Completion instance with the given per-column observation counts,
    observations listed in a shuffled (not column-sorted) order."""
    rows = np.concatenate([rng.choice(m, size=d, replace=False) for d in degrees])
    cols = np.repeat(np.arange(len(degrees)), degrees)
    perm = rng.permutation(rows.size)
    values = rng.standard_t(3, rows.size) * 2
    return EntryObservations((m, len(degrees)), rows[perm], cols[perm], values)


@pytest.mark.parametrize("omega", (0.1, 0.5, 0.9))
@pytest.mark.parametrize("ridge", (0.0, 0.4))
def test_padded_layout_matches_reference_qp(omega, ridge, monkeypatch):
    import emfkit.subsolver as subsolver

    bisections = []
    real_bisect = subsolver._bisect_rows

    def counting_bisect(*args):
        bisections.append(1)
        return real_bisect(*args)

    monkeypatch.setattr(subsolver, "_bisect_rows", counting_bisect)
    rng = np.random.RandomState(40 + int(omega * 10) + int(ridge * 10))
    k = 2
    # column 0 has exactly k observations; with ridge a column stays empty
    degrees = [k, 3, 5, 0] if ridge else [k, 3, 5]
    for _ in range(6):
        x = rng.randn(8, k)
        obs = column_degree_instance(rng, 8, degrees)
        ref = reference_qp_solve(x, obs, omega, ridge)
        warm = rng.randn(obs.shape[1], k) * 10
        res = solve_y(x, obs, omega, ridge, warm_start=warm)
        assert res.converged
        assert np.linalg.norm(ref - res.solution) <= 1e-6 * max(1.0, np.linalg.norm(ref))
        if ridge:
            assert np.array_equal(res.solution[3], np.zeros(k))
    if omega != 0.5:
        assert bisections, "far warm starts should exercise the damped step"


def test_padded_layout_power_law_degrees_match_weighted_lstsq():
    rng = np.random.RandomState(50)
    m, k, omega = 400, 3, 0.2
    degrees = np.maximum(k + 1, (300 / np.arange(1, 81) ** 1.2).astype(int))
    obs = column_degree_instance(rng, m, degrees)
    slots = sum(b.live.size for b in obs.column_buckets)
    assert obs.size <= slots <= 2 * obs.size
    assert len(obs.column_buckets) >= 5
    x = rng.randn(m, k)
    res = solve_y(x, obs, omega)
    assert res.converged
    w = np.where(res.sign_pattern, omega, 1.0 - omega)
    for j in range(obs.shape[1]):
        sel = obs.col_idx == j
        sw = np.sqrt(w[sel])
        y_j = np.linalg.lstsq(sw[:, None] * x[obs.row_idx[sel]], sw * obs.values[sel], rcond=None)[0]
        assert np.allclose(res.solution[j], y_j, rtol=1e-9, atol=1e-10)


def test_sign_pattern_in_observation_order():
    rng = np.random.RandomState(51)
    obs = column_degree_instance(rng, 30, [4, 9, 17, 6, 28, 5])
    x = rng.randn(30, 3)
    for omega in (0.1, 0.9):
        res = solve_y(x, obs, omega)
        r = residuals(obs, FactorPair(x, res.solution))
        assert np.array_equal(res.sign_pattern, r >= 0.0)
        # sparse rows: the transposed solve needs the ridge to be well posed
        t = solve_x(res.solution, obs, omega, ridge=0.1)
        r = residuals(obs, FactorPair(t.solution, res.solution))
        assert np.array_equal(t.sign_pattern, r >= 0.0)


def test_half_omega_stops_after_one_round():
    # at omega = 0.5 the weights never change, so the first solve is final
    rng = np.random.RandomState(52)
    obs = entry_instance(rng, m=10, n=4, k=2, per_col=6)
    res = solve_y(rng.randn(10, 2), obs, 0.5, warm_start=rng.randn(4, 2))
    assert res.inner_iterations == 1 and res.converged
    gres = solve_y(rng.randn(4, 2), general_instance(rng), 0.5)
    assert gres.inner_iterations == 1 and gres.converged
