"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 9 needs the web-service latency matrix, which is not shipped;
point EMFKIT_LATENCY_MATRIX at a dense whitespace matrix file (missing
entries = -1) to enable it.  Everything else is self-contained.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import os
import time

import numpy as np
import pytest

from alternation import alternate
from emfkit.core import EmfConfig, EntryObservations, FactorPair, GeneralObservations
from emfkit.emf import fit, reconstruct, svd_init
from emfkit.io import load_dense
from emfkit.loss import scalar_expectile
from emfkit.metrics import BinSpec, binned_summaries, relative_errors
from emfkit.rng import Pcg32
from emfkit.subsolver import solve_y
from emfkit.synth import (
    SPLIT_STREAM,
    apply_measurements,
    gaussian_measurements,
    gen_low_rank,
    make_completion_instance,
)
from oracle import gradient_y, objective, reference_qp_solve


def _report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------- criterion 1


@pytest.fixture(scope="module")
def noiseless_recovery_runs():
    runs = []
    t0 = time.perf_counter()
    for seed in range(5):
        inst = make_completion_instance(80, 80, 3, 0.0, 3, 0.3, seed=seed)
        for omega in (0.1, 0.5, 0.9):
            cfg = EmfConfig(omega=omega, rank=3, max_outer=200, seed=seed)
            rep = fit(inst.observed, cfg)
            err = np.linalg.norm(reconstruct(rep.factors) - inst.truth) / np.linalg.norm(
                inst.truth
            )
            runs.append(
                dict(seed=seed, omega=omega, err=err, trace=rep.objective_trace,
                     iters=len(rep.objective_trace) - 1)
            )
    return dict(runs=runs, seconds=time.perf_counter() - t0)


def test_c1_noiseless_exact_recovery(noiseless_recovery_runs):
    runs = noiseless_recovery_runs["runs"]
    secs = noiseless_recovery_runs["seconds"]
    worst = max(r["err"] for r in runs)
    most_iters = max(r["iters"] for r in runs)
    ok = all(r["err"] <= 1e-6 and r["iters"] <= 200 for r in runs) and secs <= 60.0
    _report(
        "C1 noiseless recovery",
        ok,
        f"15 runs, worst rel err {worst:.2e}, max iters {most_iters}, {secs:.1f}s",
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_gaussian_measurements_exact_recovery_by_omega(seed):
    # noiseless Gaussian measurements, three per degree of freedom of a
    # 40x40 rank-2 matrix; each omega recovers it to rounding
    m, n, k = 40, 40, 2
    p = 3 * (k * (m + n) - k * k)
    f = gen_low_rank(m, n, k, seed)
    truth = f.x @ f.y.T
    obs = apply_measurements(gaussian_measurements(m, n, p, seed), truth)
    for omega in (0.1, 0.5, 0.9):
        cfg = EmfConfig(omega=omega, rank=k, max_outer=300, tol_gradient=1e-10,
                        tol_objective=0.0, seed=seed)
        err = np.linalg.norm(reconstruct(fit(obs, cfg).factors) - truth) / np.linalg.norm(truth)
        assert err < 1e-6, f"omega {omega}: relative error {err:.2e}"


# ---------------------------------------------------------------- criterion 2


def _als_reference(obs, k, seed, iters=400, tol=1e-15):
    """Independent plain-ALS: per-row lstsq, no weight machinery, same init."""
    tri = svd_init(obs, k, seed)
    x = tri.x0.copy()
    y = tri.y0 * tri.d0
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
        if prev - cur <= tol * max(prev, 1e-300):
            prev = cur
            break
        prev = cur
    return 0.5 * prev


@pytest.fixture(scope="module")
def mse_reduction_runs():
    runs = []
    for seed in range(10):
        inst = make_completion_instance(40, 40, 3, 0.3, 3, 0.5, seed=seed)
        cfg = EmfConfig(omega=0.5, rank=3, max_outer=400, tol_objective=1e-15, seed=seed)
        rep = fit(inst.observed, cfg)
        als = _als_reference(inst.observed, 3, seed=seed)
        runs.append(dict(seed=seed, emf=rep.objective_trace[-1], als=als,
                         trace=rep.objective_trace))
    return runs


def test_c2_mse_special_case_matches_als(mse_reduction_runs):
    rel = [abs(r["emf"] - r["als"]) / max(r["als"], 1e-300) for r in mse_reduction_runs]
    ok = max(rel) <= 1e-8
    _report("C2 omega=0.5 equals ALS", ok, f"10 instances, worst rel diff {max(rel):.2e}")


# ---------------------------------------------------------------- criterion 3


@pytest.fixture(scope="module")
def skewed_noise_grid():
    omegas = (0.1, 0.25, 0.5, 0.75, 0.9)
    t0 = time.perf_counter()
    by_seed = {}
    traces = []
    for seed in range(3):
        inst = make_completion_instance(1000, 1000, 10, 0.5, 3, 0.1, seed=seed)
        medians = {}
        for omega in omegas:
            cfg = EmfConfig(
                omega=omega, rank=10, max_outer=40, tol_objective=1e-7, seed=seed
            )
            rep = fit(inst.observed, cfg)
            errs = relative_errors(inst.truth, rep.factors, inst.heldout)
            medians[omega] = float(np.median(errs))
            traces.append(rep.objective_trace)
        by_seed[seed] = medians
    return dict(by_seed=by_seed, seconds=time.perf_counter() - t0, traces=traces,
                omegas=omegas)


def test_c3_skewed_noise_ordering(skewed_noise_grid):
    omegas = skewed_noise_grid["omegas"]
    by_seed = skewed_noise_grid["by_seed"]
    secs = skewed_noise_grid["seconds"]
    strictly_ordered = 0
    low_beats_half = 0
    for medians in by_seed.values():
        vals = [medians[w] for w in omegas]
        if all(a < b for a, b in zip(vals, vals[1:])):
            strictly_ordered += 1
        if medians[0.1] < medians[0.5]:
            low_beats_half += 1
    ok = strictly_ordered >= 2 and low_beats_half == 3 and secs <= 1800.0
    detail = "; ".join(
        f"seed {s}: " + " ".join(f"{medians[w]:.3f}" for w in omegas)
        for s, medians in by_seed.items()
    )
    _report(
        "C3 skewed-noise ordering",
        ok,
        f"{strictly_ordered}/3 strictly ordered, {low_beats_half}/3 low<half, "
        f"{secs:.0f}s [{detail}]",
    )


# ---------------------------------------------------------------- criterion 4


def test_c4_subproblem_oracle_equivalence():
    rng = np.random.RandomState(2024)
    omegas = (0.05, 0.3, 0.5, 0.7, 0.95)
    worst = 0.0
    count = 0
    for rep in range(2):
        for omega in omegas:
            # entry-observation instance: 6x3, k=2, 4 observations per column
            x = rng.randn(6, 2)
            rows, cols = [], []
            for j in range(3):
                for i in rng.choice(6, size=4, replace=False):
                    rows.append(i)
                    cols.append(j)
            obs = EntryObservations((6, 3), rows, cols, rng.randn(12) * 2)
            diff = np.linalg.norm(
                reference_qp_solve(x, obs, omega) - solve_y(x, obs, omega).solution
            )
            worst = max(worst, diff)
            count += 1
            # general-measurement instance: 4x3, p = 10
            xg = rng.randn(4, 2)
            mats = [rng.randn(4, 3) for _ in range(10)]
            gobs = GeneralObservations((4, 3), mats, rng.randn(10))
            diff = np.linalg.norm(
                reference_qp_solve(xg, gobs, omega) - solve_y(xg, gobs, omega).solution
            )
            worst = max(worst, diff)
            count += 1
    ok = worst <= 1e-6
    _report("C4 subproblem oracle equivalence", ok, f"{count} instances, worst diff {worst:.2e}")


# ---------------------------------------------------------------- criterion 5


def _fd_gradient(obs, f, omega, wrt, h=1e-6):
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
        g[idx] = (objective(obs, fp, omega) - objective(obs, fm, omega)) / (2 * h)
    return g


def test_c5_gradient_finite_differences():
    rng = np.random.RandomState(99)
    worst = 0.0
    for point in range(50):
        omega = [0.1, 0.25, 0.5, 0.75, 0.9][point % 5]
        m, n, k = 5, 4, 2
        f = FactorPair(rng.randn(m, k), rng.randn(n, k))
        rows = np.repeat(np.arange(m), 2)
        cols = np.concatenate([rng.choice(n, size=2, replace=False) for _ in range(m)])
        base = np.einsum("pk,pk->p", f.x[rows], f.y[cols])
        # keep residual magnitudes >= 1e-2 so no sign flips within the FD step
        shift = rng.choice([-1.0, 1.0], size=rows.size) * rng.uniform(1e-2, 1.0, rows.size)
        if point % 3 == 2:
            mats = [rng.randn(m, n) for _ in range(8)]
            vals = np.array([float(np.vdot(a, f.x @ f.y.T)) for a in mats]) + shift[:8]
            obs = GeneralObservations((m, n), mats, vals)
        else:
            obs = EntryObservations((m, n), rows, cols, base + shift)
        for wrt, got in (("y", gradient_y(obs, f, omega)),
                         ("x", gradient_y(obs.transposed, FactorPair(f.y, f.x), omega))):
            want = _fd_gradient(obs, f, omega, wrt)
            rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)
            worst = max(worst, rel)
    ok = worst <= 1e-5
    _report("C5 gradient correctness", ok, f"50 points, worst rel FD error {worst:.2e}")


# ---------------------------------------------------------------- criterion 6


def test_c6_outer_monotonicity(noiseless_recovery_runs, mse_reduction_runs, skewed_noise_grid):
    traces = [r["trace"] for r in noiseless_recovery_runs["runs"]]
    traces += [r["trace"] for r in mse_reduction_runs]
    traces += skewed_noise_grid["traces"]
    worst = 0.0
    for tr in traces:
        tr = np.asarray(tr)
        if tr.size < 2:
            continue
        rise = (tr[1:] - tr[:-1]) / np.maximum(tr[:-1], 1e-300)
        worst = max(worst, float(rise.max()))
    ok = worst <= 1e-10
    _report(
        "C6 outer monotonicity",
        ok,
        f"{len(traces)} traces from C1-C3, worst relative rise {worst:.2e}",
    )


# ---------------------------------------------------------------- criterion 7


def test_c7_scalar_expectile_foc():
    rng = np.random.RandomState(7)
    worst = 0.0
    for _ in range(100):
        v = rng.randn(rng.randint(2, 200)) * rng.uniform(0.1, 50.0)
        scale = np.abs(v).sum()
        prev = -np.inf
        for omega in (0.1, 0.3, 0.5, 0.7, 0.9):
            e = scalar_expectile(v, omega)
            pos = np.clip(v - e, 0, None).sum()
            neg = np.clip(e - v, 0, None).sum()
            worst = max(worst, abs(omega * pos - (1 - omega) * neg) / scale)
            assert e >= prev
            prev = e
    exact = all(scalar_expectile([0.0, 1.0], w) == w for w in (0.1, 0.25, 0.5, 0.75, 0.9))
    ok = worst <= 1e-10 and exact
    _report(
        "C7 scalar expectile FOC",
        ok,
        f"100 samples, worst normalized FOC residual {worst:.2e}, {{0,1}} exact: {exact}",
    )


# ---------------------------------------------------------------- criterion 8


def test_c8_qr_equivalence():
    # fit against the same alternation re-orthonormalized between half-steps
    inst = make_completion_instance(60, 60, 3, 0.0, 3, 0.35, seed=42)
    cfg = EmfConfig(omega=0.25, rank=3, max_outer=200, seed=42)
    plain = reconstruct(fit(inst.observed, cfg).factors)
    qr = reconstruct(alternate(inst.observed, cfg, qr=True)[0])
    diff = float(np.linalg.norm(qr - plain))
    ok = diff <= 1e-6
    _report("C8 QR equivalence", ok, f"60x60 noiseless fit, product diff {diff:.2e}")


# ---------------------------------------------------------------- criterion 9

LATENCY_ENV = "EMFKIT_LATENCY_MATRIX"


def test_c9_latency_dataset():
    path = os.environ.get(LATENCY_ENV, "")
    if not path or not os.path.exists(path):
        pytest.skip(f"SKIPPED(dataset): set {LATENCY_ENV} to the dense latency matrix file")
    obs = load_dense(path, -1.0)
    values = obs.values
    mean, median = float(values.mean()), float(np.median(values))
    bins = BinSpec(np.array([0.0, 0.3, 3.1, 20.0]))
    edges = bins.boundaries
    occupancy = [
        float(((values >= edges[i]) & (values < edges[i + 1])).mean()) for i in range(3)
    ]
    stats_ok = (
        abs(mean - 0.91) <= 0.02
        and abs(median - 0.32) <= 0.02
        and abs(occupancy[0] - 0.475) <= 0.005
        and abs(occupancy[1] - 0.454) <= 0.005
        and abs(occupancy[2] - 0.071) <= 0.005
    )

    m, n = obs.shape
    train_count = int(0.1 * m * n)
    picked = Pcg32(0, SPLIT_STREAM).permutation_prefix(obs.size, train_count)
    sel = np.zeros(obs.size, dtype=bool)
    sel[picked] = True
    train = EntryObservations(obs.shape, obs.row_idx[sel], obs.col_idx[sel], obs.values[sel])
    eval_set = np.column_stack([obs.row_idx[~sel], obs.col_idx[~sel]])
    truth = np.zeros(obs.shape)
    truth[obs.row_idx, obs.col_idx] = obs.values

    low_bin, high_bin = {}, {}
    for omega in (0.1, 0.25, 0.5, 0.75, 0.9):
        cfg = EmfConfig(omega=omega, rank=10, max_outer=40, tol_objective=1e-7, seed=0)
        rep = fit(train, cfg)
        errors = relative_errors(truth, rep.factors, eval_set)
        out = binned_summaries(errors, obs.values[~sel], bins)
        low_bin[omega] = out[0].summary.median
        high_bin[omega] = out[2].summary.median
    ordering_ok = (
        min(low_bin, key=low_bin.get) == 0.1 and min(high_bin, key=high_bin.get) == 0.9
    )
    ok = stats_ok and ordering_ok
    _report(
        "C9 latency dataset",
        ok,
        f"mean {mean:.3f}, median {median:.3f}, occupancy "
        f"{[round(o, 4) for o in occupancy]}, low-bin best {min(low_bin, key=low_bin.get)}, "
        f"high-bin best {min(high_bin, key=high_bin.get)}",
    )
