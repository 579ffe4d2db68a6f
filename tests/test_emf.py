import json
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import emfkit.emf
from alternation import alternate
from emfkit.core import (
    EmfConfig,
    EntryObservations,
    FactorPair,
    GeneralObservations,
    StopReason,
    product_at_entries,
)
from emfkit.emf import DegenerateInitError, fit, reconstruct, svd_init
from emfkit.subsolver import SingularDesignError, openblas_controls
from emfkit.synth import gen_low_rank, make_completion_instance, sample_mask
from oracle import als_reference, objective, residuals


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
    start = svd_init(obs, 2, seed=0)
    # x is orthonormal, so the singular values are y's column norms
    d = np.linalg.norm(start.y, axis=0)
    assert d[0] == pytest.approx(3.0, rel=1e-12)
    assert d[1] == pytest.approx(0.0, abs=1e-12)
    e2 = np.zeros(5)
    e2[2] = 1.0
    assert np.allclose(np.abs(start.x[:, 0]), e2, atol=1e-10)


def test_svd_init_matches_dense_svd_oracle():
    rng = np.random.RandomState(0)
    for k in (1, 2, 4):
        f = FactorPair(rng.rand(12, k), rng.rand(9, k))
        s = f.x @ f.y.T
        ii, jj = np.nonzero(np.ones((12, 9)))
        obs = EntryObservations((12, 9), ii, jj, s[ii, jj])
        start = svd_init(obs, k, seed=1)
        assert rel_err(reconstruct(start), s) <= 1e-8
        # singular values, y's column norms, match the dense oracle
        d = np.linalg.norm(start.y, axis=0)
        oracle = np.linalg.svd(s, compute_uv=False)[:k]
        assert np.allclose(d, oracle, rtol=1e-8)
        assert np.abs(start.x.T @ start.x - np.eye(k)).max() <= 1e-10
        yn = start.y / d
        assert np.abs(yn.T @ yn - np.eye(k)).max() <= 1e-10
        assert np.all(np.diff(d) <= 1e-12)


def test_svd_init_zero_values_degenerate():
    obs = EntryObservations((4, 4), [0, 1], [0, 1], [0.0, 0.0])
    with pytest.raises(DegenerateInitError):
        svd_init(obs, 2, seed=0)
    with pytest.raises(DegenerateInitError):
        fit(obs, EmfConfig(omega=0.5, rank=2))


def test_svd_init_runs_a_fixed_number_of_power_iterations(monkeypatch):
    import warnings

    import emfkit.emf as emf

    _, obs = completion(40, 30, 3, 0.5, seed=3, noise=np.random.RandomState(3).randn(40, 30))
    calls = []
    real = emf._orthonormalize

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(emf, "_orthonormalize", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = svd_init(obs, 3, seed=0)
    # one QR of the sketch, then two per power iteration
    assert len(calls) == 1 + 2 * emf._POWER_ITERS
    assert start.shape == (40, 30) and start.x.shape[1] == 3


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
    init_product = reconstruct(svd_init(obs, 2, seed=2))
    assert np.allclose(reconstruct(rep.factors), init_product, atol=1e-12)
    assert rep.objective_trace[0] == pytest.approx(
        objective(obs, rep.factors, 0.3), rel=1e-12
    )



def test_t_zero_opens_one_y_half_step():
    # trace[0] is that half-step's opening objective, so at ridge 0 a column
    # seen fewer than rank times is refused before any sweep
    obs = EntryObservations((3, 3), [0, 1, 2, 0, 1], [0, 0, 1, 1, 2], [1.0, 2.0, 3.0, 1.5, 0.5])
    with pytest.raises(SingularDesignError, match="column 2"):
        fit(obs, EmfConfig(omega=0.3, rank=2, max_outer=0, seed=0))
    rep = fit(obs, EmfConfig(omega=0.3, rank=2, max_outer=0, ridge=0.1, seed=0))
    expected = objective(obs, rep.factors, 0.3, 0.1)
    assert rep.objective_trace[0] == pytest.approx(expected, rel=1e-12)

@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ridge_whose_term_overflows_is_named_before_any_warning():
    # svd_init's x is orthonormal, so the first half-step's ridge term is
    # 1e308 * rank: the fit stops there, not on an overflowed objective trace
    obs = make_completion_instance(30, 30, 2, 0.5, 3, 0.5, seed=0).observed
    message = "ridge 1e+308 times the fixed factor's squared norm is not finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit(obs, EmfConfig(omega=0.5, rank=2, max_outer=3, ridge=1e308, seed=0))


def test_half_omega_matches_als_reference():
    rng = np.random.RandomState(11)
    for seed in (0, 1):
        truth, obs = completion(30, 25, 2, 0.5, seed=seed,
                                noise=0.1 * rng.rand(30, 25))
        cfg = EmfConfig(omega=0.5, rank=2, max_outer=300, tol_objective=1e-14, seed=seed)
        rep = fit(obs, cfg)
        als_obj = als_reference(obs, 2, seed, iters=300)
        assert rep.objective_trace[-1] == pytest.approx(als_obj, rel=1e-8)


def test_qr_equivalence_single_iteration_and_full_fit():
    # at ridge 0, re-orthonormalizing between half-steps leaves the products alone
    truth, obs = completion(20, 15, 2, 0.5, seed=9)
    for t in (1, 60):
        cfg = EmfConfig(omega=0.2, rank=2, max_outer=t, seed=4)
        plain = reconstruct(fit(obs, cfg).factors)
        qr = reconstruct(alternate(obs, cfg, qr=True)[0])
        assert np.linalg.norm(plain - qr) <= 1e-8 * max(1, t)


def test_mirror_symmetry():
    truth, obs = completion(20, 15, 2, 0.5, seed=13)
    neg = EntryObservations(obs.shape, obs.row_idx, obs.col_idx, -obs.values)
    ra = fit(obs, EmfConfig(omega=0.2, rank=2, max_outer=80, seed=4))
    rb = fit(neg, EmfConfig(omega=0.8, rank=2, max_outer=80, seed=4))
    a = reconstruct(ra.factors)
    b = reconstruct(rb.factors)
    assert np.linalg.norm(a + b) <= 1e-8 * max(1.0, np.linalg.norm(a))


@pytest.mark.parametrize("seed", range(20))
def test_transposed_fit_transposes_the_product(seed):
    # noiseless only: on noisy data the two fits start from different points,
    # take the half-steps in the other order and can end in different minima
    truth, obs = completion(30, 25, 2, 0.5, seed)
    cfg = EmfConfig(omega=0.3, rank=2, seed=seed)
    a = reconstruct(fit(obs, cfg).factors)
    b = reconstruct(fit(obs.transposed, cfg).factors)
    assert rel_err(b.T, a) <= 1e-7


def test_numpy_integer_settings_fit_as_python_ints():
    truth, obs = completion(12, 10, 2, 0.5, seed=3)
    a = fit(obs, EmfConfig(omega=0.3, rank=2, max_outer=4, seed=1))
    b = fit(obs, EmfConfig(omega=0.3, rank=np.int64(2), max_outer=np.int32(4), seed=np.int64(1)))
    assert np.array_equal(a.factors.x, b.factors.x) and np.array_equal(a.factors.y, b.factors.y)
    assert np.array_equal(a.objective_trace, b.objective_trace)


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
    rows, cols = np.indices(full.shape).reshape(2, -1)
    assert np.allclose(product_at_entries(f, rows, cols), full.ravel(), rtol=0, atol=1e-14)
    ones = FactorPair(np.ones((3, 1)), np.ones((4, 1)))
    assert np.allclose(reconstruct(ones), 1.0)


def test_reconstruct_cap(monkeypatch):
    f = FactorPair(np.ones((3, 1)), np.ones((4, 1)))
    monkeypatch.setattr(emfkit.emf, "_RECONSTRUCT_CAP", 11)
    with pytest.raises(ValueError, match="cap of 11 elements"):
        reconstruct(f)
    monkeypatch.setattr(emfkit.emf, "_RECONSTRUCT_CAP", 12)
    assert reconstruct(f).shape == (3, 4)


def test_converged_fit_residuals_vanish():
    truth, obs = completion(30, 25, 2, 0.5, seed=17)
    rep = fit(obs, EmfConfig(omega=0.7, rank=2, max_outer=200, seed=3))
    assert rel_err(reconstruct(rep.factors), truth) <= 1e-6
    r = residuals(obs, rep.factors)
    assert np.abs(r).max() <= 1e-6


def test_uncertified_inner_solves_are_counted(monkeypatch):
    rng = np.random.RandomState(21)
    _, obs = completion(30, 25, 2, 0.5, seed=21, noise=rng.standard_t(3, (30, 25)))
    config = EmfConfig(omega=0.1, rank=2, max_outer=5, seed=1)
    full = fit(obs, config)
    assert full.uncertified_solves == 0
    monkeypatch.setattr(emfkit.emf, "MAX_INNER", 1)
    capped = fit(obs, config)
    assert 0 < capped.uncertified_solves <= len(capped.inner_iters)


def recorded_fit(monkeypatch, obs, config):
    """fit(obs, config), and the (max_inner, converged) of each half-step it ran."""
    calls = []
    real = emfkit.emf.solve_y

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append((kwargs["max_inner"], res.converged))
        return res

    monkeypatch.setattr(emfkit.emf, "solve_y", recording)
    return fit(obs, config), calls


def noisy_completion():
    rng = np.random.RandomState(21)
    return completion(30, 25, 2, 0.5, seed=21, noise=rng.standard_t(3, (30, 25)))[1]


def test_early_sweeps_run_one_round_until_the_objective_settles(monkeypatch):
    rep, calls = recorded_fit(monkeypatch, noisy_completion(),
                              EmfConfig(omega=0.1, rank=2, max_outer=60, seed=1))
    tr = rep.objective_trace
    caps = [cap for cap, _ in calls][:2 * (len(tr) - 1):2]  # each sweep's y half-step
    decrease = (tr[:-1] - tr[1:]) / tr[:-1]
    # the first sweep at or below EARLY_DECREASE, 1-based
    settled = int(np.argmax(decrease <= emfkit.emf.EARLY_DECREASE)) + 1
    assert decrease[0] > emfkit.emf.EARLY_DECREASE and 1 < settled < len(caps)
    assert caps[0] == emfkit.emf.MAX_INNER
    assert caps[1:settled] == [1] * (settled - 1)
    assert set(caps[settled:]) == {emfkit.emf.MAX_INNER}


@pytest.mark.parametrize("ridge, exact", [(0.0, True), (0.1, False)])
def test_a_row_with_rank_observations_runs_exact_half_steps_at_ridge_0(monkeypatch, ridge, exact):
    obs = noisy_completion()
    keep = np.ones(obs.size, dtype=bool)
    keep[np.flatnonzero(obs.row_idx == 4)[2:]] = False  # row 4 keeps 2 = rank
    obs = EntryObservations(obs.shape, obs.row_idx[keep], obs.col_idx[keep], obs.values[keep])
    rep, calls = recorded_fit(monkeypatch, obs,
                              EmfConfig(omega=0.1, rank=2, max_outer=8, ridge=ridge, seed=1))
    caps = {cap for cap, _ in calls[2:]} - {0}  # less a last, open-only half-step
    assert caps == ({emfkit.emf.MAX_INNER} if exact else {1})


@pytest.mark.parametrize("general", [False, True])
@pytest.mark.parametrize("tol_objective", [1e-10, 1e-2])
def test_half_omega_fits_are_bit_identical_to_all_exact_sweeps(monkeypatch, general, tol_objective):
    # at omega = 0.5 every half-step certifies after one round, so the
    # schedule changes nothing, the objective stop included
    rng = np.random.RandomState(5)
    if general:
        obs = GeneralObservations((8, 7), [rng.randn(8, 7) for _ in range(60)], rng.randn(60))
    else:
        obs = noisy_completion()
    cfg = EmfConfig(omega=0.5, rank=2, max_outer=40, tol_objective=tol_objective, seed=2)
    a = fit(obs, cfg)
    monkeypatch.setattr(emfkit.emf, "EARLY_DECREASE", np.inf)
    b = fit(obs, cfg)
    assert len(a.objective_trace) > 3
    assert np.array_equal(a.objective_trace, b.objective_trace)
    assert np.array_equal(a.factors.x, b.factors.x) and np.array_equal(a.factors.y, b.factors.y)
    assert a.inner_iters == b.inner_iters and a.stop_reason is b.stop_reason


def test_only_half_steps_stopped_at_max_inner_count_as_uncertified(monkeypatch):
    monkeypatch.setattr(emfkit.emf, "MAX_INNER", 2)
    rep, calls = recorded_fit(monkeypatch, noisy_completion(),
                              EmfConfig(omega=0.1, rank=2, max_outer=60, seed=1))
    stopped_at = {cap: sum(not ok for c, ok in calls if c == cap) for cap in (1, 2)}
    # one-round half-steps stop short of their certificate too, uncounted
    assert stopped_at[1] > 0 and stopped_at[2] > 0
    assert rep.uncertified_solves == stopped_at[2]


def test_y_gradient_computed_only_after_the_last_allowed_sweep(monkeypatch):
    import emfkit.emf as emf

    calls = []
    real = emf.solve_y

    def counting(*args, **kwargs):
        # a half-step that may run no round only opens, for its start gradient
        if kwargs.get("max_inner") == 0:
            calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(emf, "solve_y", counting)
    rng = np.random.RandomState(21)
    _, obs = completion(30, 25, 2, 0.5, seed=21, noise=rng.standard_t(3, (30, 25)))
    # one inner round per half-step leaves every x-gradient above tolerance
    with monkeypatch.context() as patch:
        patch.setattr(emf, "MAX_INNER", 1)
        capped = fit(obs, EmfConfig(omega=0.1, rank=2, max_outer=5, seed=1))
    assert capped.stop_reason is StopReason.MAX_ITERATIONS
    assert capped.uncertified_solves > 0
    assert calls == []
    # before max_outer the next y half-step's starting gradient decides
    _, clean = completion(30, 25, 2, 0.5, seed=17)
    rep = fit(clean, EmfConfig(omega=0.7, rank=2, max_outer=200, seed=3))
    sweeps = len(rep.objective_trace) - 1
    assert rep.stop_reason is StopReason.TOLERANCE_GRADIENT and sweeps < 200
    assert calls == []
    # after the last allowed sweep no next half-step does
    last = fit(clean, EmfConfig(omega=0.7, rank=2, max_outer=sweeps, seed=3))
    assert last.stop_reason is StopReason.TOLERANCE_GRADIENT
    assert len(calls) == 1
    assert np.array_equal(last.objective_trace, rep.objective_trace)
    assert np.array_equal(last.factors.x, rep.factors.x)
    assert last.inner_iters == rep.inner_iters


def test_gradient_stop_reads_a_y_half_step_that_ran_no_round(monkeypatch):
    import emfkit.emf as emf

    rounds = []
    real = emf.solve_y

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        rounds.append(res.inner_iterations)
        return res

    monkeypatch.setattr(emf, "solve_y", recording)
    _, clean = completion(30, 25, 2, 0.5, seed=17)
    rep = fit(clean, EmfConfig(omega=0.7, rank=2, max_outer=200, seed=3))
    assert rep.stop_reason is StopReason.TOLERANCE_GRADIENT
    # the discarded y half-step only opened and read its start gradient
    assert rounds[-1] == 0 and rounds[:-1] == rep.inner_iters


@pytest.mark.parametrize(
    "ridge, tol_gradient, stop",
    [
        (0.0, 1e-8, StopReason.TOLERANCE_GRADIENT),
        (0.0, 1e-2, StopReason.TOLERANCE_GRADIENT),
        (1e-3, 1.0, StopReason.TOLERANCE_GRADIENT),
        # the ridge balances the two factors' norms slowly: all 100 sweeps
        # run, and the gradient test after the last one fails
        (1e-2, 1e-2, StopReason.MAX_ITERATIONS),
        (0.1, 0.1, StopReason.TOLERANCE_GRADIENT),
    ],
)
def test_qr_fit_stops_where_a_per_sweep_gradient_test_stops(ridge, tol_gradient, stop):
    # fit reads a sweep's y-gradient from the next half-step's start; the
    # reference loop computes it with oracle.gradient_y
    for seed in (0, 1):
        _, obs = completion(30, 25, 2, 0.5, seed=seed)
        cfg = EmfConfig(omega=0.3, rank=2, max_outer=100, seed=seed,
                        ridge=ridge, tol_gradient=tol_gradient, tol_objective=0.0)
        rep = fit(obs, cfg)
        factors, trace, inner, ref_stop = alternate(obs, cfg)
        assert rep.stop_reason is ref_stop is stop
        assert np.array_equal(rep.objective_trace, trace)
        assert np.array_equal(rep.factors.x, factors.x)
        assert np.array_equal(rep.factors.y, factors.y)
        assert rep.inner_iters == inner


def tiny_fit_instance(rng, general):
    """A random entry or general instance; entry rows and columns hold at
    least rank observations, so a ridge-free fit is well posed."""
    k = rng.randint(1, 3)
    m, n = rng.randint(k + 1, 7), rng.randint(k + 1, 7)
    if general:
        p = rng.randint(1, m * n + 1)
        mats = [rng.randn(m, n) for _ in range(p)]
        return k, GeneralObservations((m, n), mats, rng.randn(p) * 2)
    keep = rng.rand(m, n) < 0.7
    for i in range(m):
        keep[i, rng.choice(n, k, replace=False)] = True
    for j in range(n):
        keep[rng.choice(m, k, replace=False), j] = True
    rows, cols = np.nonzero(keep)
    return k, EntryObservations((m, n), rows, cols, rng.randn(rows.size) * 2 + 1)


def with_values(obs, values):
    if isinstance(obs, EntryObservations):
        return EntryObservations(obs.shape, obs.row_idx, obs.col_idx, values)
    return GeneralObservations(obs.shape, obs.measurements, values)


fit_seeds = st.integers(0, 2**32 - 1)
# k/64: omega and 1 - omega are both exact, so reflection swaps the weights
fit_omegas = st.integers(1, 63).map(lambda k: k / 64)


def _tiny_config(k, omega, ridge, seed):
    # tol_gradient 0 leaves only scale-free stop tests: relative objective
    # decrease, sign changes, the sweep cap and emf.MAX_INNER
    return EmfConfig(omega=omega, rank=k, max_outer=6, tol_gradient=0.0, ridge=ridge, seed=seed)


@given(seed=fit_seeds, omega=fit_omegas, general=st.booleans(), power=st.integers(-4, 4))
@settings(max_examples=30)
def test_property_fit_scales_with_the_values(seed, omega, general, power):
    # a power of two c scales every product and sum exactly: the SVD start,
    # each half-step and the objective trace (by c^2); the ridge term would
    # not scale with the data, so ridge is 0
    rng = np.random.RandomState(seed)
    k, obs = tiny_fit_instance(rng, general)
    c = 2.0 ** power
    cfg = _tiny_config(k, omega, 0.0, seed)
    a = fit(obs, cfg)
    b = fit(with_values(obs, c * obs.values), cfg)
    assert np.array_equal(reconstruct(b.factors), c * reconstruct(a.factors))
    assert np.array_equal(b.objective_trace, c * c * a.objective_trace)


@given(seed=fit_seeds, omega=fit_omegas, general=st.booleans(), ridge=st.sampled_from([0.0, 0.3]))
@settings(max_examples=30)
# a row with exactly rank observations at ridge 0: one-round half-steps
# would read its weights off rounding noise, so fit runs it exact throughout
@example(seed=1, omega=1 / 64, general=False, ridge=0.0)
def test_property_fit_reflected_values_negate_the_product(seed, omega, general, ridge):
    # without ridge a general half-step can have a whole set of minimizers,
    # and the weights of its zero residuals pick one; the ridge makes it unique
    ridge = 0.3 if general else ridge
    rng = np.random.RandomState(seed)
    k, obs = tiny_fit_instance(rng, general)
    a = fit(obs, _tiny_config(k, omega, ridge, seed))
    b = fit(with_values(obs, -obs.values), _tiny_config(k, 1.0 - omega, ridge, seed))
    pa, pb = reconstruct(a.factors), reconstruct(b.factors)
    assert np.abs(pb + pa).max() <= 1e-9 * max(1.0, np.abs(pa).max())


# An entry fit whose inputs involve no BLAS call (Pcg32 draws, an einsum
# product), on 24,000 observations: more than OpenBLAS splits a dot product
# across threads at.  Prints, as JSON, the SHA-256 of each output per seed;
# then of an svd_init and a solve_y called outside fit, which therefore run
# at the process's BLAS thread count while fit holds OpenBLAS at one thread;
# then of each file but plan.txt (which records out_dir) of README's
# synth-exp reproducer: a 500x500 rank-5 truth, a shape at which OpenBLAS's
# dgemm rounds the product differently at one and two threads.  Beside
# them, the OpenBLAS thread counts that solve_y saw during fits.
_THREADED_FIT = """
import contextlib, hashlib, json, pathlib, sys, tempfile
import numpy as np
import emfkit.emf
from emfkit.cli import main
from emfkit.core import EmfConfig, EntryObservations
from emfkit.emf import fit, solve_y, svd_init
from emfkit.rng import Pcg32
from emfkit.subsolver import openblas_controls
from emfkit.synth import sample_mask

def sha(*arrays):
    return [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]

seen = set()
def counting_solve_y(*args, **kwargs):
    seen.update(get() for get, _ in openblas_controls())
    return solve_y(*args, **kwargs)
emfkit.emf.solve_y = counting_solve_y

m, n, k = 200, 400, 3
out = []
for seed in range(6):
    draw = Pcg32(seed, 1).normal
    x, y = draw(m * k).reshape(m, k), draw(n * k).reshape(n, k)
    values = np.einsum("ik,jk->ij", x, y) + draw(m * n).reshape(m, n) ** 2
    rows, cols = sample_mask(m, n, 0.3, seed).T
    obs = EntryObservations((m, n), rows, cols, values[rows, cols])
    rep = fit(obs, EmfConfig(omega=0.1, rank=k, max_outer=5, seed=seed))
    out.append(sha(rep.factors.x, rep.factors.y, rep.objective_trace,
                   np.asarray(rep.inner_iters)))
start = svd_init(obs, k, 5)
half = solve_y(start.x, obs, 0.1, warm_start=start.y, max_inner=5)
out.append(sha(start.x, start.y, half.solution, half.inner_objective_trace))
with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(sys.stderr):
    assert main(["synth-exp", "--m", "500", "--n", "500", "--rank", "5", "--k-true", "5",
                 "--sampling-rate", "0.2", "--omega", "0.1", "--seed", "3",
                 "--max-outer", "5", "--out-dir", d]) == 0
    out.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(pathlib.Path(d).iterdir()) if p.name != "plan.txt"})
print(json.dumps({"digests": out, "blas_in_fit": sorted(seen)}))
"""


def test_entry_fit_bytes_do_not_depend_on_the_blas_thread_count():
    src = str(Path(emfkit.emf.__file__).resolve().parents[1])
    digests, in_fit = [], []
    for threads in ("1", "2"):
        # set before numpy is imported: OpenBLAS reads it once, at load
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", _THREADED_FIT], env=env,
                             capture_output=True, text=True, check=True)
        result = json.loads(run.stdout)
        digests.append(result["digests"])
        in_fit.append(result["blas_in_fit"])
    assert digests[0][:-2] == digests[1][:-2], "entry fits"
    assert digests[0][-2] == digests[1][-2], "svd_init and solve_y outside fit"
    assert len(digests[0][-1]) == 3 and digests[0][-1] == digests[1][-1], "synth-exp files"
    # this process loaded the same numpy, so its OpenBLAS, as the children
    assert in_fit[1] == ([1] if openblas_controls() else []), "fit holds one BLAS thread"


def blas_counts():
    return [get() for get, _ in openblas_controls()]


@pytest.fixture
def blas_at_two():
    """Every OpenBLAS library loaded here at two threads for the test, so
    that a hold at one shows on any host; the counts are put back after."""
    controls = openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this process: the hold does nothing")
    saved = blas_counts()
    for _, set_ in controls:
        set_(2)
    yield
    for (_, set_), count in zip(controls, saved):
        set_(count)


def test_openblas_control_is_found_where_numpy_names_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # a numpy without a machine-readable build config
        pytest.skip("numpy's build config does not name its BLAS")
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy is built against {blas}, not OpenBLAS")
    assert openblas_controls(), f"numpy uses {blas}, but no OpenBLAS thread control was found"


def _recording_solve_y(monkeypatch, seen, before=lambda: None):
    solve_y = emfkit.emf.solve_y

    def recording(*args, **kwargs):
        before()
        seen.append(blas_counts())
        return solve_y(*args, **kwargs)

    monkeypatch.setattr(emfkit.emf, "solve_y", recording)


def test_entry_fit_holds_openblas_at_one_thread(blas_at_two, monkeypatch):
    seen = []
    _recording_solve_y(monkeypatch, seen)
    _, obs = completion(30, 25, 2, 0.5, seed=4)
    fit(obs, EmfConfig(omega=0.2, rank=2, max_outer=3, seed=4))
    assert seen and all(counts == [1] * len(counts) for counts in seen)
    assert blas_counts() == [2] * len(seen[0])


def test_entry_fit_that_raises_restores_the_blas_threads(blas_at_two):
    # column 0 is seen once, fewer than rank 2 times, and ridge is zero
    _, obs = completion(20, 20, 2, 0.6, seed=5)
    keep = (obs.col_idx != 0) | (obs.row_idx == obs.row_idx[obs.col_idx == 0][0])
    short = EntryObservations(obs.shape, obs.row_idx[keep], obs.col_idx[keep], obs.values[keep])
    with pytest.raises(SingularDesignError, match="column 0"):
        fit(short, EmfConfig(omega=0.3, rank=2, max_outer=3, seed=5))
    assert blas_counts() == [2] * len(openblas_controls())


def test_concurrent_entry_fits_restore_the_blas_threads_once(blas_at_two, monkeypatch):
    # both fits wait inside their first half-step until the other is in its
    # own, so the holds overlap; the counts are set to one and back once
    sets = []
    monkeypatch.setattr(emfkit.subsolver, "openblas_controls", lambda: tuple(
        (get, lambda count, set_=set_: (sets.append(count), set_(count)))
        for get, set_ in openblas_controls()))
    both_in, waited = threading.Barrier(2), set()

    def meet():
        if threading.get_ident() not in waited:
            waited.add(threading.get_ident())
            both_in.wait(timeout=60)

    seen = []
    _recording_solve_y(monkeypatch, seen, meet)
    _, obs = completion(30, 25, 2, 0.5, seed=6)
    config = EmfConfig(omega=0.2, rank=2, max_outer=3, seed=6)
    with ThreadPoolExecutor(2) as pool:
        reports = [f.result() for f in [pool.submit(fit, obs, config) for _ in range(2)]]
    assert np.array_equal(reports[0].factors.x, reports[1].factors.x)
    assert all(counts == [1] * len(counts) for counts in seen)
    assert sets == [1] * len(openblas_controls()) + [2] * len(openblas_controls())
    assert blas_counts() == [2] * len(openblas_controls())


def test_general_fit_keeps_the_blas_threads(blas_at_two, monkeypatch):
    sets, seen = [], []
    monkeypatch.setattr(emfkit.subsolver, "openblas_controls", lambda: tuple(
        (get, lambda count: sets.append(count)) for get, _ in openblas_controls()))
    _recording_solve_y(monkeypatch, seen)
    k, obs = tiny_fit_instance(np.random.RandomState(7), general=True)
    fit(obs, _tiny_config(k, 0.3, 0.3, 7))
    assert not sets
    assert seen and all(counts == [2] * len(counts) for counts in seen)
