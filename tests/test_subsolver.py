import contextlib
import dataclasses
import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emfkit.core
import emfkit.subsolver
from emfkit.core import EntryObservations, FactorPair, GeneralObservations
from emfkit.loss import asymmetric_weights
from emfkit.subsolver import SingularDesignError, one_blas_thread, solve_y
from oracle import gradient_y, objective, reference_qp_solve, residuals

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
    # the x half-step on the transposed view equals the y half-step on the
    # same observations built as entries of the transposed matrix
    rng = np.random.RandomState(4)
    for _ in range(4):
        obs = entry_instance(rng, m=5, n=4, k=2, per_col=3)
        # make rows well observed too so the transposed design is full rank
        if (obs.transposed.col_counts < 2).any():
            continue
        y_fixed = rng.randn(4, 2)
        built = EntryObservations(obs.shape[::-1], obs.col_idx, obs.row_idx, obs.values)
        a = solve_y(y_fixed, obs.transposed, 0.3)
        b = solve_y(y_fixed, built, 0.3)
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
    res = solve_y(y, obs.transposed, omega=0.7)
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


def test_singular_design_names_the_column(monkeypatch):
    # at omega 0.5 every weight is 1/2, so with unit design rows each normal
    # entry is half a power-of-two degree and LU meets an exact zero pivot;
    # np.linalg.solve accepts other exactly singular systems silently
    monkeypatch.setattr(emfkit.core, "BUCKET_COLUMNS", 1)
    rng = np.random.RandomState(15)
    # one column a bucket: columns 3, 1, 2, 0 in buckets of widths 2, 4, 8,
    # 16, in that order
    obs = column_degree_instance(rng, 20, [16, 4, 8, 2])
    with pytest.raises(SingularDesignError, match=r"^column 3: "):
        solve_y(np.ones((20, 2)), obs, 0.5)
    # the factor's two columns agree only on the rows column 2 observes
    x = rng.randn(20, 2)
    x[obs.row_idx[obs.col_idx == 2]] = 1.0
    with pytest.raises(SingularDesignError, match=r"^column 2: "):
        solve_y(x, obs, 0.5)
    assert solve_y(x, obs, 0.5, ridge=1e-3).converged


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
    real_damp = subsolver._damp

    def counting_damp(*args):
        bisections.append(1)
        return real_damp(*args)

    monkeypatch.setattr(subsolver, "_damp", counting_damp)
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
    slots = sum(b.rows.size for b in obs.column_buckets)
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
        t = solve_y(res.solution, obs.transposed, omega, ridge=0.1)
        r = residuals(obs, FactorPair(t.solution, res.solution))
        assert np.array_equal(t.sign_pattern, r >= 0.0)


def test_sign_pattern_is_computed_once_on_first_read(monkeypatch):
    from emfkit.core import EmfConfig
    from emfkit.emf import fit

    # the sign pattern is the only reader of apply in a solve or a fit
    calls = []
    for cls in (EntryObservations, GeneralObservations):
        def counting_apply(self, f, real=cls.apply):
            calls.append(1)
            return real(self, f)

        monkeypatch.setattr(cls, "apply", counting_apply)
    rng = np.random.RandomState(53)
    obs = column_degree_instance(rng, 12, [8] * 8)
    fit(obs, EmfConfig(omega=0.2, rank=2, max_outer=5, ridge=0.1))
    assert not calls, "a fit reads no sign pattern"
    for obs in (obs, general_instance(rng, 12, 8, p=40)):
        x = rng.randn(12, 2)
        res = solve_y(x, obs, 0.2, warm_start=rng.randn(8, 2))
        assert not calls
        x_at_solve = x.copy()
        x *= -1.0  # the caller reuses its array
        pattern = res.sign_pattern
        assert len(calls) == 1
        assert res.sign_pattern is pattern and len(calls) == 1
        assert np.array_equal(pattern, residuals(obs, FactorPair(x_at_solve, res.solution)) >= 0)
        assert not np.array_equal(pattern, residuals(obs, FactorPair(x, res.solution)) >= 0)
        calls.clear()


def test_half_omega_stops_after_one_round():
    # at omega = 0.5 the weights never change, so the first solve is final
    rng = np.random.RandomState(52)
    obs = entry_instance(rng, m=10, n=4, k=2, per_col=6)
    res = solve_y(rng.randn(10, 2), obs, 0.5, warm_start=rng.randn(4, 2))
    assert res.inner_iterations == 1 and res.converged
    gres = solve_y(rng.randn(4, 2), general_instance(rng), 0.5)
    assert gres.inner_iterations == 1 and gres.converged


def one_hot_measurements(obs):
    """The entry observations as general measurements <E_ij, M>."""
    mats = []
    for i, j in zip(obs.row_idx, obs.col_idx):
        e = np.zeros(obs.shape)
        e[i, j] = 1.0
        mats.append(e)
    return GeneralObservations(obs.shape, mats, obs.values)


def overshooting_warm_start(x, obs, omega):
    """A warm start whose first round overshoots, for entry observations and
    an x whose first column is all ones (so y[:, 0] shifts a whole column)."""
    y_ls = solve_y(x, obs, 0.5).solution
    r = residuals(obs, FactorPair(x, y_ls))
    # shift each column until all residuals sit on the low-weight side:
    # the first round then solves plain least squares and overshoots
    side = 1.0 if omega < 0.5 else -1.0
    reach = np.zeros(obs.shape[1])
    np.maximum.at(reach, obs.col_idx, -side * r)
    shifted = y_ls.copy()
    shifted[:, 0] -= side * (reach + 0.1)
    return shifted


@pytest.mark.parametrize("omega", (0.1, 0.5, 0.9))
def test_one_driver_serves_both_observation_kinds(omega, monkeypatch):
    import emfkit.subsolver as subsolver

    damped = {"entry": 0, "general": 0}
    real_damp = subsolver._damp

    def counting_damp(part, y_old, *args):
        # the general block's one row is vec(Y), n * k wide
        damped["entry" if y_old.shape[1] == k else "general"] += 1
        return real_damp(part, y_old, *args)

    monkeypatch.setattr(subsolver, "_damp", counting_damp)
    rng = np.random.RandomState(60 + int(omega * 10))
    m, k = 8, 2
    for _ in range(3):
        obs = column_degree_instance(rng, m, [5, 4, 6, 5])
        gobs = one_hot_measurements(obs)
        # a column of ones lets y[:, 0] shift every fitted value of a column
        x = np.column_stack([np.ones(m), rng.randn(m, k - 1)])
        for warm in (rng.randn(obs.shape[1], k) * 10, overshooting_warm_start(x, obs, omega)):
            a = solve_y(x, obs, omega, warm_start=warm)
            b = solve_y(x, gobs, omega, warm_start=warm)
            assert a.converged and b.converged
            assert np.abs(a.solution - b.solution).max() <= 1e-8
            assert np.array_equal(a.sign_pattern, b.sign_pattern)
    if omega != 0.5:
        assert damped["entry"] and damped["general"]


@pytest.mark.parametrize("general", [False, True])
@pytest.mark.parametrize("ridge", [0.0, 0.3])
def test_solve_leaves_fixed_factor_and_warm_start_untouched(general, ridge, monkeypatch):
    # the rounds update solve_y's own copy of the warm start in place
    import emfkit.subsolver as subsolver

    damped = []
    real_damp = subsolver._damp

    def counting_damp(*args):
        damped.append(1)
        return real_damp(*args)

    monkeypatch.setattr(subsolver, "_damp", counting_damp)
    rng = np.random.RandomState(90 + general + int(ridge * 10))
    m, k = 8, 2
    for _ in range(3):
        entries = column_degree_instance(rng, m, [5, 4, 6, 5])
        obs = one_hot_measurements(entries) if general else entries
        x = np.column_stack([np.ones(m), rng.randn(m, k - 1)])
        for warm in (rng.randn(4, k) * 10, overshooting_warm_start(x, entries, 0.1)):
            x_before, warm_before = x.copy(), warm.copy()
            res = solve_y(x, obs, 0.1, ridge, warm_start=warm)
            assert res.converged
            assert np.array_equal(x, x_before) and np.array_equal(warm, warm_before)
            assert not np.shares_memory(res.solution, warm)
    assert damped, "far warm starts should exercise the damped step"


def test_general_certificate_is_the_loss_gradient():
    rng = np.random.RandomState(61)
    x = rng.randn(4, 2)
    gobs = general_instance(rng, p=10)
    for ridge in (0.0, 0.3):
        res = solve_y(x, gobs, 0.2, ridge, warm_start=rng.randn(3, 2) * 10, max_inner=1)
        g = np.linalg.norm(gradient_y(gobs, FactorPair(x, res.solution), 0.2, ridge))
        assert g > 1e-3
        assert abs(res.final_gradient_norm - g) <= 1e-9 * g


@pytest.mark.parametrize("ridge", [0.0, 0.3])
@pytest.mark.parametrize("general", [False, True])
def test_start_gradient_is_the_loss_gradient_at_the_warm_start(general, ridge):
    rng = np.random.RandomState(63)
    x = rng.randn(6 if not general else 4, 2)
    obs = general_instance(rng, p=10) if general else entry_instance(rng)
    warm = rng.randn(obs.shape[1], 2) * 3
    res = solve_y(x, obs, 0.2, ridge, warm_start=warm)
    g = np.linalg.norm(gradient_y(obs, FactorPair(x, warm), 0.2, ridge))
    assert g > 1e-3
    assert abs(res.start_gradient_norm - g) <= 1e-9 * g


def test_start_gradient_below_tol_gradient_runs_no_round():
    rng = np.random.RandomState(64)
    x = rng.randn(6, 2)
    obs = entry_instance(rng)
    warm = rng.randn(obs.shape[1], 2) * 3
    full = solve_y(x, obs, 0.2, warm_start=warm)
    g0 = full.start_gradient_norm
    stop = solve_y(x, obs, 0.2, warm_start=warm, tol_gradient=1.01 * g0)
    assert stop.inner_iterations == 0 and np.array_equal(stop.solution, warm)
    assert stop.converged and stop.start_gradient_norm == stop.final_gradient_norm == g0
    assert np.array_equal(stop.inner_objective_trace, full.inner_objective_trace[:1])
    # the test is strict, as fit's gradient stop is
    again = solve_y(x, obs, 0.2, warm_start=warm, tol_gradient=g0)
    assert again.inner_iterations >= 1


@pytest.mark.parametrize("general", [False, True])
def test_warm_start_at_its_optimum_runs_no_round(general):
    # a solved half-step, started again from its solution, is already
    # solved on either side of the observation set
    rng = np.random.RandomState(65)
    obs = general_instance(rng, p=30) if general else entry_instance(rng, m=8, n=6, per_col=5)
    for side in (obs, obs.transposed):
        x = rng.randn(side.shape[0], 2)
        opt = solve_y(x, side, 0.2, 0.1).solution
        res = solve_y(x, side, 0.2, 0.1, warm_start=opt)
        assert res.start_gradient_norm < 1e-8
        assert res.inner_iterations == 0 and res.converged
        assert np.array_equal(res.solution, opt)
        assert res.inner_objective_trace.size == 1


def test_general_solve_certifies_near_its_optimum():
    # p = 500 measurements of a rank-3 20x20 matrix: far more rows than n*k = 60
    from emfkit import synth

    m, n, k, p = 20, 20, 3, 500
    rng = np.random.RandomState(62)
    for seed in range(3):
        f = synth.gen_low_rank(m, n, k, seed)
        noise = synth.chi_square_noise(p, 1, 3, 0.5, seed).ravel()
        gobs = synth.apply_measurements(
            synth.gaussian_measurements(m, n, p, seed), f.x @ f.y.T, noise
        )
        x = f.x + 0.1 * rng.randn(m, k)
        opt = solve_y(x, gobs, 0.25)
        assert opt.converged
        res = solve_y(x, gobs, 0.25, warm_start=opt.solution + 1e-6 * rng.randn(n, k))
        assert res.converged
        assert np.abs(res.solution - opt.solution).max() <= 1e-8


@pytest.mark.parametrize("ridge", [0.0, 0.3])
@pytest.mark.parametrize("omega", [0.02, 0.1, 0.5, 0.9, 0.98])
def test_two_valued_general_assembly_matches_the_weighted_products(omega, ridge):
    import emfkit.subsolver as subsolver

    rng = np.random.RandomState(66)
    gobs = general_instance(rng, m=7, n=6, p=300)
    a = gobs.design(rng.randn(7, 3)).reshape(gobs.size, -1).T  # (18, 300)
    w = asymmetric_weights(rng.randn(gobs.size), omega)
    d = a.shape[0]
    normal, rhs = np.empty((1, d, d)), np.empty((1, d, 1))
    subsolver._assemble(a[None], w[None], gobs.values[None], ridge, normal, rhs)
    two_normal, two_rhs = np.empty((d, d)), np.empty((d, 1))
    subsolver._assemble_general(a, a @ a.T, w, gobs.values, omega, ridge, two_normal, two_rhs)
    assert np.linalg.norm(two_normal - normal[0]) <= 1e-12 * np.linalg.norm(normal[0])
    assert np.linalg.norm(two_rhs - rhs[0]) <= 1e-12 * np.linalg.norm(rhs[0])


def test_accepted_cholesky_solve_is_the_lstsq_solution(monkeypatch):
    import emfkit.subsolver as subsolver

    rng = np.random.RandomState(67)
    a = rng.randn(12, 40)
    normal = (a * asymmetric_weights(rng.randn(40), 0.1)) @ a.T
    rhs = rng.randn(12, 1)
    lstsq = np.linalg.lstsq
    expected = lstsq(normal, rhs[:, 0], rcond=None)[0]

    def no_lstsq(*args, **kwargs):
        raise AssertionError("a nonsingular general system fell back to lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    y = subsolver._solve(normal[None], rhs[None], np.zeros(1, dtype=np.int64), True)
    assert y.shape == (1, 12)
    assert np.abs(y[0] - expected).max() <= 1e-10 * np.abs(expected).max()


@pytest.mark.parametrize("seed", range(70, 80))
def test_general_half_step_with_fewer_measurements_than_unknowns_is_min_norm(seed, monkeypatch):
    # p = 5 < n*k = 8 at ridge 0: every half-step minimizer interpolates,
    # and the min-norm one is pinv(G^T) b whatever the weights.  The
    # singular normal matrices go to lstsq; on seed 77 one of them factors,
    # with a tiny pivot
    rng = np.random.RandomState(seed)
    gobs = general_instance(rng, m=4, n=4, p=5)
    x = rng.randn(4, 2)
    calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    res = solve_y(x, gobs, 0.2, warm_start=rng.randn(4, 2) * 3)
    assert res.converged and len(calls) == res.inner_iterations
    g = gobs.design(x).reshape(gobs.size, -1)
    min_norm = np.linalg.pinv(g) @ gobs.values
    assert np.abs(res.solution.ravel() - min_norm).max() <= 1e-9 * np.abs(min_norm).max()


def per_column_sign_set(x, obs, omega, ridge, warm):
    """Plain sign-set iteration, one column at a time, with step halving when
    a full step raises the column's objective.  Returns the solution, the
    sign pattern and per column its number of rounds: the last one leaves
    its weights unchanged and takes the full step."""
    n, k = warm.shape
    y = warm.copy()
    pattern = np.empty(obs.size, dtype=bool)
    rounds = np.zeros(n, dtype=int)
    damped = False
    for j in range(n):
        sel = np.nonzero(obs.col_idx == j)[0]
        a, v = x[obs.row_idx[sel]], obs.values[sel]

        def state(yj):
            r = v - a @ yj
            w = np.where(r >= 0.0, omega, 1.0 - omega)
            return r, w, float(w @ (r * r)) + ridge * float(yj @ yj)

        yj = warm[j]
        _, w, o = state(yj)
        while True:
            rounds[j] += 1
            assert rounds[j] < 100
            step = np.linalg.solve(a.T @ (w[:, None] * a) + ridge * np.eye(k), a.T @ (w * v)) - yj
            t = 1.0
            r_new, w_new, o_new = state(yj + step)
            while o_new > o * (1.0 + 1e-13) + 1e-300:
                t *= 0.5
                assert t > 2.0**-60
                r_new, w_new, o_new = state(yj + t * step)
            yj = yj + t * step
            damped |= t < 1.0
            if t == 1.0 and np.array_equal(w_new, w):
                break
            w, o = w_new, o_new
        y[j] = yj
        pattern[sel] = r_new >= 0.0
    return y, pattern, rounds, damped


def solved_columns_per_round(monkeypatch, obs):
    """Wrap the batched solve of the carried normal equations; the returned
    list gets the ids of the columns each round solves."""
    import emfkit.subsolver as subsolver

    bucket_of = np.empty(obs.shape[1], dtype=int)
    for i, b in enumerate(obs.column_buckets):
        bucket_of[b.cols] = i
    per_round, seen, lock = [], set(), threading.Lock()
    real_solve = subsolver._solve

    def recording_solve(normal, rhs, cols, *args):
        # a round solves each live bucket once, in any order and on any
        # thread, and the next round starts only when it is done: a bucket
        # the current round already solved starts a new round
        i = bucket_of[cols[0]]
        with lock:
            if not per_round or i in seen:
                per_round.append([])
                seen.clear()
            seen.add(i)
            per_round[-1].extend(cols.tolist())
        return real_solve(normal, rhs, cols, *args)

    monkeypatch.setattr(subsolver, "_solve", recording_solve)
    return per_round


@pytest.mark.parametrize("case", ["damped", "ridge", "split buckets", "threaded buckets"])
def test_converged_columns_leave_the_round_loop(case, monkeypatch):
    import emfkit.subsolver as subsolver

    rng = np.random.RandomState(74)
    m, k, omega, ridge = 40, 3, 0.1, 0.0
    degrees = rng.randint(6, 30, size=12)
    if case == "ridge":
        ridge = 0.3
    if case.endswith("buckets"):
        monkeypatch.setattr(emfkit.core, "BUCKET_COLUMNS", 2)
        degrees = rng.randint(9, 17, size=12)  # counts within 2x: six buckets
    if case == "threaded buckets":
        monkeypatch.setattr(subsolver, "ROUND_THREADS", 4)
        monkeypatch.setattr(subsolver, "_THREADED_NUMBERS", 0)
    obs = column_degree_instance(rng, m, degrees)
    x = rng.randn(m, k)
    warm = rng.randn(obs.shape[1], k) * (10.0 if case == "damped" else 0.5)
    per_round = solved_columns_per_round(monkeypatch, obs)
    res = solve_y(x, obs, omega, ridge, warm_start=warm)

    y_ref, pattern_ref, rounds, damped = per_column_sign_set(x, obs, omega, ridge, warm)
    assert res.converged
    assert np.abs(res.solution - y_ref).max() <= 1e-9 * max(1.0, np.abs(y_ref).max())
    assert np.array_equal(res.sign_pattern, pattern_ref)
    # round t solves exactly the columns still iterating in round t of the
    # reference: all of them first, then those whose weights changed or whose
    # step was damped in round t - 1
    assert res.inner_iterations == len(per_round) == rounds.max() >= 3
    for t, cols in enumerate(per_round, start=1):
        assert sorted(cols) == np.nonzero(rounds >= t)[0].tolist()
    assert len(set(rounds)) > 2  # columns leave in different rounds
    if case == "damped":
        assert damped
    if case.endswith("buckets"):
        assert len(obs.column_buckets) == 6


seeds = st.integers(0, 2**32 - 1)
inner_omegas = st.floats(0.05, 0.95)
ridges = st.sampled_from([0.0, 0.3])


def tiny_instance(rng, general, ridge):
    """A random entry or general instance small enough for reference_qp_solve."""
    k = rng.randint(1, 3)
    if general:
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        return rng.randn(m, k), general_instance(rng, m, n, p=rng.randint(1, 9))
    m, n = rng.randint(k, 7), rng.randint(1, 4)
    degrees = rng.randint(0 if ridge else k, m + 1, size=n)
    if degrees.sum() > 12:
        degrees = np.minimum(degrees, max(k, 12 // n))
    degrees[0] = max(degrees[0], 1)
    return rng.randn(m, k), column_degree_instance(rng, m, degrees)


@given(seed=seeds, omega=inner_omegas, ridge=ridges, general=st.booleans())
@settings(max_examples=60)
def test_property_solver_matches_reference_qp(seed, omega, ridge, general):
    rng = np.random.RandomState(seed)
    x, obs = tiny_instance(rng, general, ridge)
    warm = rng.randn(obs.shape[1], x.shape[1]) * 3
    res = solve_y(x, obs, omega, ridge, warm_start=warm)
    ref = reference_qp_solve(x, obs, omega, ridge)
    assert res.converged
    assert np.linalg.norm(res.solution - ref) <= 1e-6 * max(1.0, np.linalg.norm(ref))


@given(seed=seeds, omega=inner_omegas, ridge=ridges, general=st.booleans(),
       cap=st.sampled_from([2, 256]))
@settings(max_examples=40)
def test_property_solution_ignores_observation_order(seed, omega, ridge, general, cap):
    # shuffled observations, and for entries relabeled columns, which moves
    # every column to another bucket position; cap 2 splits the buckets
    rng = np.random.RandomState(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(emfkit.core, "BUCKET_COLUMNS", cap)
        if general:
            m, n, k, p = 4, 3, 2, rng.randint(1, 30)
            obs = general_instance(rng, m, n, p)
            perm = rng.permutation(p)
            moved = GeneralObservations(obs.shape, [obs.measurements[i] for i in perm],
                                        obs.values[perm])
            relabel = np.arange(n)
        else:
            m, n, k = 20, rng.randint(1, 9), rng.randint(1, 4)
            degrees = rng.randint(0 if ridge else k, m + 1, size=n)
            degrees[0] = max(degrees[0], 1)
            obs = column_degree_instance(rng, m, degrees)
            perm, relabel = rng.permutation(obs.size), rng.permutation(n)
            moved = EntryObservations(obs.shape, obs.row_idx[perm],
                                      relabel[obs.col_idx[perm]], obs.values[perm])
        x = rng.randn(m, k)
        warm = rng.randn(n, k) * 3
        warm_moved = np.empty_like(warm)
        warm_moved[relabel] = warm
        a = solve_y(x, obs, omega, ridge, warm_start=warm)
        b = solve_y(x, moved, omega, ridge, warm_start=warm_moved)
    assert a.converged and b.converged
    scale = max(1.0, np.abs(a.solution).max())
    assert np.abs(b.solution[relabel] - a.solution).max() <= 1e-9 * scale
    # an interpolated observation's residual is rounding noise of either sign
    r = residuals(obs, FactorPair(x, a.solution))
    sure = (np.abs(r) > 1e-9 * max(1.0, np.abs(obs.values).max()))[perm]
    assert np.array_equal(b.sign_pattern[sure], a.sign_pattern[perm][sure])


def with_values(obs, values):
    """The same observation operators carrying other values."""
    if isinstance(obs, EntryObservations):
        return EntryObservations(obs.shape, obs.row_idx, obs.col_idx, values)
    return GeneralObservations(obs.shape, obs.measurements, values)


# k/64: omega and 1 - omega are both exact, so reflection swaps the weights
dyadic_omegas = st.integers(1, 63).map(lambda k: k / 64)


@given(seed=seeds, omega=dyadic_omegas, ridge=ridges, general=st.booleans(),
       power=st.integers(-4, 4))
@settings(max_examples=60)
def test_property_solution_scales_with_the_values(seed, omega, ridge, general, power):
    # with c a power of two every product and sum scales exactly; tol_gradient
    # 0 leaves only scale-free stop tests (sign changes, relative descent)
    rng = np.random.RandomState(seed)
    x, obs = tiny_instance(rng, general, ridge)
    warm = rng.randn(obs.shape[1], x.shape[1]) * 3
    c = 2.0 ** power
    caps = dict(max_inner=30, tol_gradient=0.0)
    a = solve_y(x, obs, omega, ridge, warm_start=warm, **caps)
    b = solve_y(x, with_values(obs, c * obs.values), omega, ridge, warm_start=c * warm, **caps)
    assert np.array_equal(b.solution, c * a.solution)
    assert b.inner_iterations == a.inner_iterations


@given(seed=seeds, omega=dyadic_omegas, ridge=ridges, general=st.booleans())
# a normal matrix carried across rounds by rank updates drifts off the
# weights and flaps at interpolation on these two
@example(seed=876, omega=62 / 64, ridge=0.0, general=True)
@example(seed=877, omega=62 / 64, ridge=0.0, general=True)
@settings(max_examples=60)
def test_property_reflected_values_negate_the_solution(seed, omega, ridge, general):
    # residuals change sign and omega <-> 1 - omega swaps their weights; only
    # an exactly zero residual, rounding noise at an interpolated
    # observation, gets another weight, so the match is to rounding
    rng = np.random.RandomState(seed)
    x, obs = tiny_instance(rng, general, ridge)
    warm = rng.randn(obs.shape[1], x.shape[1]) * 3
    a = solve_y(x, obs, omega, ridge, warm_start=warm)
    b = solve_y(x, with_values(obs, -obs.values), 1.0 - omega, ridge, warm_start=-warm)
    assert a.converged and b.converged
    assert np.abs(b.solution + a.solution).max() <= 1e-9 * max(1.0, np.abs(a.solution).max())


def solve_with_threads(threads, *args, **kwargs):
    """solve_y with every round of more than one live bucket on at most
    `threads` threads, and a short switch interval so that bucket threads
    interleave often."""
    import emfkit.subsolver as subsolver

    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subsolver, "ROUND_THREADS", threads)
        mp.setattr(subsolver, "_THREADED_NUMBERS", 0)
        sys.setswitchinterval(1e-6)
        try:
            return solve_y(*args, **kwargs)
        finally:
            sys.setswitchinterval(interval)


def record_threads(monkeypatch, name):
    """Wrap the subsolver's kernel `name`; the returned list gets the thread
    of every call."""
    import emfkit.subsolver as subsolver

    called_on = []
    real = getattr(subsolver, name)

    def recording(*args):
        called_on.append(threading.get_ident())
        return real(*args)

    monkeypatch.setattr(subsolver, name, recording)
    return called_on


@pytest.mark.parametrize("ridge", [0.0, 0.3])
@pytest.mark.parametrize("omega", [0.1, 0.5, 0.9])
def test_threaded_rounds_equal_serial_rounds(omega, ridge, monkeypatch):
    # each bucket's arithmetic, in its opening and in every round, is the
    # same on any thread, so more threads than cores and buckets of two
    # columns change no bit of the result
    monkeypatch.setattr(emfkit.core, "BUCKET_COLUMNS", 2)
    rng = np.random.RandomState(80 + int(omega * 10) + int(ridge * 10))
    m, k = 40, 3
    obs = column_degree_instance(rng, m, rng.randint(6, 30, size=15))
    assert len(obs.column_buckets) >= 5
    x = rng.randn(m, k)
    warm = rng.randn(obs.shape[1], k) * 10
    gathered_on = record_threads(monkeypatch, "_gather")
    solved_on = record_threads(monkeypatch, "_solve")
    serial = solve_with_threads(1, x, obs, omega, ridge, warm_start=warm)
    assert set(gathered_on) == set(solved_on) == {threading.get_ident()}
    gathered_on.clear()
    solved_on.clear()
    threaded = solve_with_threads(8, x, obs, omega, ridge, warm_start=warm)
    # the calling thread opens and solves buckets too, but not all of them
    assert len(gathered_on) == len(obs.column_buckets)
    assert set(gathered_on) - {threading.get_ident()}
    assert set(solved_on) - {threading.get_ident()}
    assert serial.inner_iterations >= (1 if omega == 0.5 else 3)
    for name in [f.name for f in dataclasses.fields(serial)] + ["sign_pattern"]:
        a, b = getattr(serial, name), getattr(threaded, name)
        if name.startswith("_") and not isinstance(a, np.ndarray):
            assert a is b, name  # the observation set
        else:
            assert np.array_equal(a, b), name


def test_threaded_rounds_name_the_serial_singular_column(monkeypatch):
    # one column a bucket: columns 3, 1, 2, 0 in buckets of widths 2, 4, 8,
    # 16, in that order; the factor's two columns agree on the rows columns
    # 2 and 0 observe, so both their buckets are singular at the opening and
    # the serial loop meets column 2 first; the threaded run opens them on
    # the pool's threads
    monkeypatch.setattr(emfkit.core, "BUCKET_COLUMNS", 1)
    rng = np.random.RandomState(16)
    obs = column_degree_instance(rng, 60, [16, 4, 8, 2])
    x = rng.randn(60, 2)
    x[obs.row_idx[np.isin(obs.col_idx, [0, 2])]] = 1.0
    gathered_on = record_threads(monkeypatch, "_gather")
    for threads in (1, 8):
        gathered_on.clear()
        with pytest.raises(SingularDesignError, match=r"^column 2: "):
            solve_with_threads(threads, x, obs, 0.5)
        assert len(gathered_on) == 4
        assert (set(gathered_on) == {threading.get_ident()}) is (threads == 1)


@pytest.mark.parametrize("threads", [1, 8])
def test_entry_certificate_is_the_loss_gradient(threads, monkeypatch):
    # after one round, in buckets of two columns, some columns left, some
    # stay live and some were damped, and the half-step stops uncertified;
    # the gradients read from the carried normal equations are those of
    # oracle.gradient_y
    import emfkit.subsolver as subsolver

    monkeypatch.setattr(emfkit.core, "BUCKET_COLUMNS", 2)
    damped, assembled = [], []
    real_damp, real_assemble = subsolver._damp, subsolver._assemble

    def counting_damp(*args):
        damped.append(1)
        return real_damp(*args)

    def counting_assemble(a, *args):
        assembled.append(len(a))
        return real_assemble(a, *args)

    monkeypatch.setattr(subsolver, "_damp", counting_damp)
    monkeypatch.setattr(subsolver, "_assemble", counting_assemble)
    rng = np.random.RandomState(90)
    m, k, omega = 40, 3, 0.1
    obs = column_degree_instance(rng, m, rng.randint(6, 30, size=15))
    n, buckets = obs.shape[1], len(obs.column_buckets)
    assert buckets >= 5
    # a column of ones lets the warm start overshoot in its first round
    x = np.column_stack([np.ones(m), rng.randn(m, k - 1)])
    for ridge in (0.0, 0.3):
        # columns at their optimum leave after one round, far ones stay
        warm = overshooting_warm_start(x, obs, omega)
        warm[::3] = rng.randn(len(warm[::3]), k) * 10
        warm[1::3] = solve_y(x, obs, omega, ridge).solution[1::3]
        damped.clear()
        assembled.clear()
        res = solve_with_threads(threads, x, obs, omega, ridge, warm_start=warm, max_inner=1)
        assert res.inner_iterations == 1 and not res.converged and damped
        # the opening assembles every bucket, the round's end the live columns
        assert sum(assembled[:buckets]) == n and 0 < sum(assembled[buckets:]) < n
        g = np.linalg.norm(gradient_y(obs, FactorPair(x, res.solution), omega, ridge))
        assert g > 1e-3
        assert abs(res.final_gradient_norm - g) <= 1e-9 * g
        g0 = np.linalg.norm(gradient_y(obs, FactorPair(x, warm), omega, ridge))
        assert abs(res.start_gradient_norm - g0) <= 1e-9 * g0


def test_assembly_chunks_change_no_bit(monkeypatch):
    # only the assembly weights its design a chunk at a time; chunks of a
    # few hundred numbers split the wider buckets' assemblies and change no
    # bit of a solve in which columns leave in different rounds and some
    # are damped
    import emfkit.subsolver as subsolver

    rng = np.random.RandomState(27)
    m, k, omega = 60, 3, 0.1
    obs = column_degree_instance(rng, m, rng.randint(6, 30, size=40))
    assert len(obs.column_buckets) >= 3
    # a column of ones lets the warm start overshoot in its first round
    x = np.column_stack([np.ones(m), rng.randn(m, k - 1)])
    warm = overshooting_warm_start(x, obs, omega)
    warm[::3] = rng.randn(len(warm[::3]), k) * 10
    warm[1::3] = solve_y(x, obs, omega).solution[1::3]
    default = solve_y(x, obs, omega, warm_start=warm)
    damped, assembled = [], []
    real_damp, real_assemble = subsolver._damp, subsolver._assemble

    def counting_damp(*args):
        damped.append(1)
        return real_damp(*args)

    def counting_assemble(a, *args):
        assembled.append(a.size)
        return real_assemble(a, *args)

    monkeypatch.setattr(subsolver, "_damp", counting_damp)
    monkeypatch.setattr(subsolver, "_assemble", counting_assemble)
    monkeypatch.setattr(subsolver, "_WEIGHTED_NUMBERS", 300)
    per_round = solved_columns_per_round(monkeypatch, obs)
    chunked = solve_y(x, obs, omega, warm_start=warm)
    assert damped and max(assembled) > 300  # some assembly took several chunks
    assert default.converged and default.inner_iterations >= 3
    # all columns in the first round, then fewer in each later one
    live = [len(cols) for cols in per_round]
    assert live[0] == obs.shape[1] and live == sorted(set(live), reverse=True)
    for name in [f.name for f in dataclasses.fields(default)] + ["sign_pattern"]:
        a, b = getattr(default, name), getattr(chunked, name)
        if name.startswith("_") and not isinstance(a, np.ndarray):
            assert a is b, name  # the observation set
        else:
            assert np.array_equal(a, b), name


def test_one_blas_thread_holds_restore_once_under_contention(monkeypatch):
    # a fake control: eight threads enter and leave the hold, some nested,
    # with the interpreter switching threads every few bytecodes; a lost
    # update of the depth would leave the count at one or restore it early
    count, sets, bad = [5], [], []

    def set_(n):
        sets.append(n)
        count[0] = n
        time.sleep(0)  # let another thread run inside the hold's bookkeeping

    monkeypatch.setattr(emfkit.subsolver, "openblas_controls", lambda: ((lambda: count[0], set_),))

    def holder():
        for i in range(1000):
            with one_blas_thread(), (one_blas_thread() if i % 3 else contextlib.nullcontext()):
                if count[0] != 1:
                    bad.append(count[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=holder) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad and count == [5]
    assert sets and sets == [1, 5] * (len(sets) // 2)


@pytest.mark.parametrize("kwargs, message", [
    (dict(omega=0.0), "omega must be in (0, 1), got 0.0"),
    (dict(omega=float("nan")), "omega must be in (0, 1), got nan"),
    (dict(ridge=-0.5), "ridge must be finite and >= 0, got -0.5"),
    (dict(ridge=float("nan")), "ridge must be finite and >= 0, got nan"),
    (dict(ridge=float("inf")), "ridge must be finite and >= 0, got inf"),
    (dict(ridge=1e308), "ridge 1e+308 times the fixed factor's squared norm is not finite"),
    (dict(warm_start=np.zeros((3, 3))), "warm_start shape (3, 3), expected (3, 2)"),
    (dict(x_fixed=np.ones((5, 2))), "fixed factor has 5 rows, observations expect 6"),
], ids=["omega 0", "omega nan", "negative ridge", "ridge nan", "ridge inf", "ridge overflows",
        "warm start shape", "fixed factor rows"])
def test_solve_y_refuses_bad_arguments(kwargs, message):
    rng = np.random.RandomState(3)
    obs = entry_instance(rng)
    args = dict(x_fixed=rng.randn(6, 2), omega=0.3, ridge=0.0) | kwargs
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solve_y(obs=obs, **args)


def test_start_gradient_norm_stays_finite_where_its_squares_overflow():
    # at ridge 1e300 the start gradient's entries are finite, near 1e301, but
    # their squares overflow; the norm is read scaled, so it is finite and
    # the certificate's bound tol * (1 + norm) no longer accepts any gradient
    rng = np.random.RandomState(9)
    x, obs = rng.randn(6, 2), entry_instance(rng)
    warm = rng.randn(obs.shape[1], 2)
    res = solve_y(x, obs, 0.3, 1e300, warm_start=warm)
    g = 2.0 * 1e300 * warm  # the ridge term, far above the loss gradient
    assert res.start_gradient_norm == pytest.approx(float(np.linalg.norm(g / 1e300)) * 1e300)
    assert res.converged and res.final_gradient_norm < 1e-8 * res.start_gradient_norm
    assert emfkit.subsolver._norm(np.array([3e200, 4e200])) == pytest.approx(5e200, rel=1e-15)
    assert emfkit.subsolver._norm(np.array([np.inf, 1.0])) == np.inf


def test_overflowing_opening_objective_names_the_ridge():
    # the ridge term of the fixed factor is finite, that of the warm start not
    rng = np.random.RandomState(11)
    obs = entry_instance(rng)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^ridge 1e\+300: the opening objective inf "):
            solve_y(1e-10 * rng.randn(6, 2), obs, 0.3, 1e300,
                    warm_start=1e10 * rng.randn(obs.shape[1], 2))


def test_overflowing_normal_matrix_is_refused():
    # every column sees all six rows, so each normal matrix is nonsingular;
    # with fixed-factor entries near 1e160 its entries overflow to inf, and
    # the solve's non-finite rows are refused, where 1e150 still solves
    rows, cols = np.divmod(np.arange(18), 3)
    rng = np.random.RandomState(0)
    obs = EntryObservations((6, 3), rows, cols, rng.randn(18))
    x = 1.0 + rng.rand(6, 2)
    assert solve_y(1e150 * x, obs, 0.3).converged
    message = "column 0: its weighted normal matrix is numerically singular or overflows"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularDesignError, match=f"^{re.escape(message)}$"):
            solve_y(1e160 * x, obs, 0.3)
