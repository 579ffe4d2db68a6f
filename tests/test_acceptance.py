"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 9 needs the web-service latency matrix, which is not shipped;
point EMFKIT_LATENCY_MATRIX at a dense whitespace matrix file (missing
entries = -1) to enable it.  Its ordering check also runs, always, on a
synthetic latency twin.  Everything else is self-contained.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import os
import time

import numpy as np
import pytest

from alternation import alternate
from emfkit.core import EmfConfig, EntryObservations, FactorPair, GeneralObservations
from emfkit.cli import main
from emfkit.emf import fit
from emfkit.io import load_dense, read_results_csv, write_dense
from emfkit.loss import scalar_expectile
from emfkit.rng import Pcg32
from emfkit.subsolver import solve_y
from emfkit.synth import (
    SPLIT_STREAM,
    apply_measurements,
    chi_square_noise,
    gaussian_measurements,
    gen_low_rank,
    make_completion_instance,
)
from oracle import als_reference, fd_gradient, gradient_y, reference_qp_solve


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
            f = rep.factors
            err = np.linalg.norm(f.x @ f.y.T - inst.truth) / np.linalg.norm(inst.truth)
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


def _gaussian_recovery(per_dof, seed):
    """Noiseless Gaussian measurements, per_dof per degree of freedom of a
    40x40 rank-2 matrix: the observations, the EmfConfig of an omega, and
    the relative error of a FactorPair's product."""
    m, n, k = 40, 40, 2
    p = per_dof * (k * (m + n) - k * k)
    f = gen_low_rank(m, n, k, seed)
    truth = f.x @ f.y.T
    obs = apply_measurements(gaussian_measurements(m, n, p, seed), truth)

    def config(omega):
        return EmfConfig(omega=omega, rank=k, max_outer=300, tol_gradient=1e-10,
                         tol_objective=0.0, seed=seed)

    def error(factors):
        return np.linalg.norm(factors.x @ factors.y.T - truth) / np.linalg.norm(truth)

    return obs, config, error


@pytest.mark.parametrize("seed", [0, 1])
def test_gaussian_measurements_exact_recovery_by_omega(seed):
    # three measurements per degree of freedom: each omega recovers the
    # matrix to rounding
    obs, config, error = _gaussian_recovery(3, seed)
    for omega in (0.1, 0.5, 0.9):
        err = error(fit(obs, config(omega)).factors)
        assert err < 1e-6, f"omega {omega}: relative error {err:.2e}"


def test_gaussian_measurements_recover_from_the_half_omega_fit():
    # at two measurements per degree of freedom, seed 0, omega 0.9 the fit
    # from svd_init stalls at relative error 0.278 (300 sweeps, a spurious
    # stationary point); from the omega = 0.5 fit's factors the same
    # alternation recovers the matrix: the start fails, not the solver
    obs, config, error = _gaussian_recovery(2, 0)
    half = fit(obs, config(0.5)).factors
    err = error(alternate(obs, config(0.9), start=half)[0])
    assert err < 1e-6, f"relative error {err:.2e}"


# ---------------------------------------------------------------- criterion 2


@pytest.fixture(scope="module")
def mse_reduction_runs():
    runs = []
    for seed in range(10):
        inst = make_completion_instance(40, 40, 3, 0.3, 3, 0.5, seed=seed)
        cfg = EmfConfig(omega=0.5, rank=3, max_outer=400, tol_objective=1e-15, seed=seed)
        rep = fit(inst.observed, cfg)
        als = als_reference(inst.observed, 3, seed, iters=400, tol=1e-15)
        runs.append(dict(seed=seed, emf=rep.objective_trace[-1], als=als,
                         trace=rep.objective_trace))
    return runs


def test_c2_mse_special_case_matches_als(mse_reduction_runs):
    rel = [abs(r["emf"] - r["als"]) / max(r["als"], 1e-300) for r in mse_reduction_runs]
    ok = max(rel) <= 1e-8
    _report("C2 omega=0.5 equals ALS", ok, f"10 instances, worst rel diff {max(rel):.2e}")


# ---------------------------------------------------------------- criterion 3


@pytest.fixture(scope="module")
def skewed_noise_grid(tmp_path_factory):
    # `emfkit synth-exp`'s defaults are C3's instance: 1000x1000, rank 10,
    # 10% sampled, 0.5 chi^2_3 noise, omega 0.1, 0.25, 0.5, 0.75 and 0.9
    out = tmp_path_factory.mktemp("c3")
    omegas = (0.1, 0.25, 0.5, 0.75, 0.9)
    t0 = time.perf_counter()
    status = main(["synth-exp", "--seed", "0,1,2", "--max-outer", "40", "--tol-obj", "1e-7",
                   "--workers", "2", "--out-dir", str(out)])
    seconds = time.perf_counter() - t0
    assert status == 0
    by_seed = {}
    traces = []
    for row in read_results_csv(out / "summary.csv"):
        if row["metric"] == "re_median":
            by_seed.setdefault(int(row["seed"]), {})[float(row["omega"])] = row["value"]
            traces.append([r["value"] for r in read_results_csv(out / f"{row['run_id']}.csv")
                           if r["metric"] == "objective_trace"])
    return dict(by_seed=by_seed, seconds=seconds, traces=traces, omegas=omegas)


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
            want = fd_gradient(obs, f, omega, wrt)
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
    plain, qr = fit(inst.observed, cfg).factors, alternate(inst.observed, cfg, qr=True)[0]
    plain, qr = plain.x @ plain.y.T, qr.x @ qr.y.T
    diff = float(np.linalg.norm(qr - plain))
    ok = diff <= 1e-6
    _report("C8 QR equivalence", ok, f"60x60 noiseless fit, product diff {diff:.2e}")


# ---------------------------------------------------------------- criterion 9

LATENCY_ENV = "EMFKIT_LATENCY_MATRIX"


def _latency_bin_medians(path, edges, out):
    """C9's experiment, README's `emfkit complete --bins` recipe: fit a 10%
    split of the matrix file at path at each omega and return, by omega,
    the median held-out relative error in each bin of truth values that
    edges bound, read from the run's summary.csv in out."""
    status = main(["complete", "--input", str(path), "--omega", "0.1,0.25,0.5,0.75,0.9",
                   "--seed", "0", "--rank", "10", "--sampling-rate", "0.1", "--max-outer", "40",
                   "--tol-obj", "1e-7", "--bins", ",".join(repr(float(e)) for e in edges), "--workers", "2",
                   "--out-dir", str(out)])
    assert status == 0
    labels = [f"{lo:g}-{hi:g}" for lo, hi in zip(edges, edges[1:])]  # the CLI's bin labels
    medians = {}
    for row in read_results_csv(out / "summary.csv"):
        if row["metric"] == "re_median" and row["bin"] in labels:
            by_bin = medians.setdefault(float(row["omega"]), [None] * len(labels))
            by_bin[labels.index(row["bin"])] = row["value"]
    return medians


def _best_omegas(medians):
    """The omega with the lowest median error in the low bin and in the high bin."""
    low = min(medians, key=lambda w: medians[w][0])
    high = min(medians, key=lambda w: medians[w][2])
    return low, high


def test_c9_latency_dataset(tmp_path):
    path = os.environ.get(LATENCY_ENV, "")
    if not path or not os.path.exists(path):
        pytest.skip(f"SKIPPED(dataset): set {LATENCY_ENV} to the dense latency matrix file")
    obs = load_dense(path, -1.0)
    values = obs.values
    mean, median = float(values.mean()), float(np.median(values))
    edges = (0.0, 0.3, 3.1, 20.0)
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
    low_best, high_best = _best_omegas(_latency_bin_medians(path, edges, tmp_path / "res"))
    ok = stats_ok and low_best == 0.1 and high_best == 0.9
    _report(
        "C9 latency dataset",
        ok,
        f"mean {mean:.3f}, median {median:.3f}, occupancy "
        f"{[round(o, 4) for o in occupancy]}, low-bin best {low_best}, "
        f"high-bin best {high_best}",
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_c9_criterion_on_a_latency_twin(tmp_path, seed):
    # a synthetic stand-in for C9's matrix, written and read as C9's file
    # is: a skewed, positive 339x1500 matrix exp(0.6 z - 1.2) + 0.25 chi^2_3,
    # z the standardized rank-3 product, with a few sentinel holes; binned
    # at its 47.5% and 92.9% value quantiles, C9's bin occupancies
    m, n = 339, 1500
    f = gen_low_rank(m, n, 3, seed)
    z = f.x @ f.y.T
    z = (z - z.mean()) / z.std()
    values = np.exp(0.6 * z - 1.2) + chi_square_noise(m, n, 3, 0.25, seed)
    holes = np.zeros((m, n), dtype=bool)
    holes.flat[Pcg32(seed, SPLIT_STREAM).permutation_prefix(m * n, 40)] = True
    path = tmp_path / "twin.txt"
    write_dense(path, values, mask=~holes)
    obs = load_dense(path, -1.0)
    assert obs.size == m * n - 40 and np.array_equal(obs.values, values[~holes])
    edges = [0.0, *np.quantile(obs.values, [0.475, 0.929]).tolist(), 2.0 * obs.values.max()]
    low_best, high_best = _best_omegas(_latency_bin_medians(path, edges, tmp_path / "res"))
    _report("C9 on a latency twin", low_best == 0.1 and high_best == 0.9,
            f"seed {seed}: low-bin best {low_best}, high-bin best {high_best}")
