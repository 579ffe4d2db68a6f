import numpy as np
import pytest

from emfkit.core import EmfConfig, EntryObservations, FactorPair, StopReason
from emfkit.emf import DegenerateInitError, fit, predict, reconstruct, svd_init
from emfkit.loss import objective, residuals
from emfkit.synth import gen_low_rank, sample_mask


def completion(m, n, k, rate, seed, noise=None):
    f = gen_low_rank(m, n, k, seed)
    truth = f.x @ f.y.T
    data = truth if noise is None else truth + noise
    mask = sample_mask(m, n, rate, seed)
    rows, cols = mask[:, 0], mask[:, 1]
    return truth, EntryObservations((m, n), rows, cols, data[rows, cols])


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_svd_init_rank_one_single_entry():
    obs = EntryObservations((5, 4), [2], [1], [-3.0])
    tri = svd_init(obs, 2, seed=0)
    assert tri.d0[0] == pytest.approx(3.0, rel=1e-12)
    assert tri.d0[1] == pytest.approx(0.0, abs=1e-12)
    e2 = np.zeros(5)
    e2[2] = 1.0
    assert np.allclose(np.abs(tri.x0[:, 0]), e2, atol=1e-10)


def test_svd_init_matches_dense_svd_oracle():
    rng = np.random.RandomState(0)
    for k in (1, 2, 4):
        f = FactorPair(rng.rand(12, k), rng.rand(9, k))
        s = f.x @ f.y.T
        ii, jj = np.nonzero(np.ones((12, 9)))
        obs = EntryObservations((12, 9), ii, jj, s[ii, jj])
        tri = svd_init(obs, k, seed=1)
        rec = tri.x0 @ np.diag(tri.d0) @ tri.y0.T
        assert rel_err(rec, s) <= 1e-8
        # singular values match the dense oracle
        oracle = np.linalg.svd(s, compute_uv=False)[:k]
        assert np.allclose(tri.d0, oracle, rtol=1e-8)
        assert np.abs(tri.x0.T @ tri.x0 - np.eye(k)).max() <= 1e-10
        assert np.abs(tri.y0.T @ tri.y0 - np.eye(k)).max() <= 1e-10
        assert np.all(np.diff(tri.d0) <= 1e-12)


def test_svd_init_zero_values_degenerate():
    obs = EntryObservations((4, 4), [0, 1], [0, 1], [0.0, 0.0])
    tri = svd_init(obs, 2, seed=0)
    assert np.allclose(tri.d0, 0.0)
    with pytest.raises(DegenerateInitError):
        fit(obs, EmfConfig(omega=0.5, rank=2))


def test_svd_init_rejects_oversized_rank():
    obs = EntryObservations((3, 2), [0], [0], [1.0])
    with pytest.raises(ValueError):
        svd_init(obs, 3, seed=0)


@pytest.mark.parametrize("omega", [0.1, 0.5, 0.9])
def test_noiseless_recovery_80x80(omega):
    truth, obs = completion(80, 80, 3, 0.3, seed=7)
    cfg = EmfConfig(omega=omega, rank=3, max_outer=200, seed=7)
    rep = fit(obs, cfg)
    assert rel_err(reconstruct(rep.factors), truth) <= 1e-6
    assert len(rep.objective_trace) - 1 <= 200


def test_outer_trace_monotone_and_deterministic():
    truth, obs = completion(40, 30, 2, 0.4, seed=3)
    cfg = EmfConfig(omega=0.25, rank=2, max_outer=80, seed=5)
    a = fit(obs, cfg)
    b = fit(obs, cfg)
    tr = a.objective_trace
    assert np.all(tr[1:] <= tr[:-1] * (1 + 1e-10) + 1e-300)
    assert np.array_equal(tr, b.objective_trace)  # bit-identical


def test_t_zero_returns_initialization():
    truth, obs = completion(10, 8, 2, 0.8, seed=1)
    cfg = EmfConfig(omega=0.3, rank=2, max_outer=0, seed=2)
    rep = fit(obs, cfg)
    assert len(rep.objective_trace) == 1
    assert rep.stop_reason is StopReason.MAX_ITERATIONS
    tri = svd_init(obs, 2, seed=2)
    init_product = tri.x0 @ np.diag(tri.d0) @ tri.y0.T
    assert np.allclose(reconstruct(rep.factors), init_product, atol=1e-12)
    assert rep.objective_trace[0] == pytest.approx(
        objective(obs, rep.factors, 0.3), rel=1e-12
    )


def test_half_omega_matches_als_reference():
    rng = np.random.RandomState(11)
    for seed in (0, 1):
        truth, obs = completion(30, 25, 2, 0.5, seed=seed,
                                noise=0.1 * rng.rand(30, 25))
        cfg = EmfConfig(omega=0.5, rank=2, max_outer=300, tol_objective=1e-14, seed=seed)
        rep = fit(obs, cfg)
        als_obj = _als_reference(obs, 2, seed=seed)
        assert rep.objective_trace[-1] == pytest.approx(als_obj, rel=1e-8)


def _als_reference(obs, k, seed, iters=300):
    """Plain alternating least squares from the same SVD init; returns 0.5*SSR."""
    tri = svd_init(obs, k, seed)
    x = tri.x0.copy()
    y = tri.y0 * tri.d0
    m, n = obs.shape
    for _ in range(iters):
        for j in range(n):
            sel = obs.col_idx == j
            a = x[obs.row_idx[sel]]
            y[j] = np.linalg.lstsq(a, obs.values[sel], rcond=None)[0]
        for i in range(m):
            sel = obs.row_idx == i
            a = y[obs.col_idx[sel]]
            x[i] = np.linalg.lstsq(a, obs.values[sel], rcond=None)[0]
    r = obs.values - np.einsum("pk,pk->p", x[obs.row_idx], y[obs.col_idx])
    return 0.5 * float(r @ r)


def test_qr_equivalence_single_iteration_and_full_fit():
    truth, obs = completion(20, 15, 2, 0.5, seed=9)
    for t in (1, 60):
        recs = []
        for use_qr in (False, True):
            cfg = EmfConfig(omega=0.2, rank=2, max_outer=t, use_qr=use_qr, seed=4)
            recs.append(reconstruct(fit(obs, cfg).factors))
        assert np.linalg.norm(recs[0] - recs[1]) <= 1e-8 * max(1, t)


def test_mirror_symmetry():
    truth, obs = completion(20, 15, 2, 0.5, seed=13)
    neg = EntryObservations(obs.shape, obs.row_idx, obs.col_idx, -obs.values)
    ra = fit(obs, EmfConfig(omega=0.2, rank=2, max_outer=80, seed=4))
    rb = fit(neg, EmfConfig(omega=0.8, rank=2, max_outer=80, seed=4))
    a = reconstruct(ra.factors)
    b = reconstruct(rb.factors)
    assert np.linalg.norm(a + b) <= 1e-8 * max(1.0, np.linalg.norm(a))


def test_geometric_early_decrease_noiseless():
    truth, obs = completion(60, 60, 3, 0.35, seed=21)
    rep = fit(obs, EmfConfig(omega=0.3, rank=3, max_outer=200, seed=21))
    tr = rep.objective_trace
    floor = max(tr[-1], 1e-24)
    # every 20 consecutive early iterations cut the objective by >= 10x
    for start in range(0, len(tr) - 20):
        if tr[start + 20] > floor * 10:
            assert tr[start + 20] <= tr[start] / 10.0


def test_predict_and_reconstruct_agree():
    rng = np.random.RandomState(2)
    f = FactorPair(rng.rand(6, 2), rng.rand(5, 2))
    full = reconstruct(f)
    for i in range(6):
        for j in range(5):
            assert predict(f, i, j) == pytest.approx(full[i, j], abs=1e-14)
    ones = FactorPair(np.ones((3, 1)), np.ones((4, 1)))
    assert np.allclose(reconstruct(ones), 1.0)


def test_reconstruct_cap():
    f = FactorPair(np.ones((3, 1)), np.ones((4, 1)))
    with pytest.raises(ValueError):
        reconstruct(f, max_elements=11)


def test_converged_fit_residuals_vanish():
    truth, obs = completion(30, 25, 2, 0.5, seed=17)
    rep = fit(obs, EmfConfig(omega=0.7, rank=2, max_outer=200, seed=3))
    assert rel_err(reconstruct(rep.factors), truth) <= 1e-6
    r = residuals(obs, rep.factors)
    assert np.abs(r).max() <= 1e-6


def test_uncertified_inner_solves_are_counted():
    rng = np.random.RandomState(21)
    _, obs = completion(30, 25, 2, 0.5, seed=21, noise=rng.standard_t(3, (30, 25)))
    capped = fit(obs, EmfConfig(omega=0.1, rank=2, max_outer=5, max_inner=1, seed=1))
    assert 0 < capped.uncertified_solves <= len(capped.inner_iters)
    full = fit(obs, EmfConfig(omega=0.1, rank=2, max_outer=5, seed=1))
    assert full.uncertified_solves == 0
