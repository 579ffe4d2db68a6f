import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emfkit.core
from emfkit.core import EntryObservations, FactorPair, GeneralObservations
from emfkit.loss import asymmetric_weights, scalar_expectile
from oracle import fd_gradient, gradient_y, objective, residuals

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
omegas = st.floats(min_value=1e-3, max_value=1.0 - 1e-3)


def loss(t, omega):
    """The loss w(t) * t**2 of one residual."""
    return asymmetric_weights(t, omega) * t * t


def gradient_x(obs, f, omega, ridge=0.0):
    """The x-factor gradient: gradient_y of the transposed problem."""
    return gradient_y(obs.transposed, FactorPair(f.y, f.x), omega, ridge)


def random_completion(rng, m=5, n=4, k=2, min_resid=0.0):
    """Small instance with every column holding >= k observations."""
    f = FactorPair(rng.randn(m, k), rng.randn(n, k))
    rows, cols = [], []
    for j in range(n):
        for i in rng.choice(m, size=3, replace=False):
            rows.append(i)
            cols.append(j)
    rows, cols = np.array(rows), np.array(cols)
    base = np.einsum("pk,pk->p", f.x[rows], f.y[cols])
    if min_resid > 0:
        shift = rng.choice([-1.0, 1.0], size=len(rows)) * rng.uniform(
            min_resid, 10 * min_resid, size=len(rows)
        )
    else:
        shift = rng.randn(len(rows))
    return f, EntryObservations((m, n), rows, cols, base + shift)


def test_asymmetric_weight_cases():
    assert asymmetric_weights(2.0, 0.1) == 0.1
    assert asymmetric_weights(-2.0, 0.1) == pytest.approx(0.9)
    assert asymmetric_weights(0.0, 0.3) == 0.3


@pytest.mark.parametrize("omega", [0.1, 0.3, 0.5, 0.77, 1e-3])
def test_asymmetric_weights_match_the_where_reference(omega):
    # the table lookup gives np.where's values, dtype and shape bit for bit:
    # -0.0 counts as nonnegative, NaN as negative
    cases = [
        np.array([[0.0, -0.0, 1e-300, -1e-300], [np.nan, np.inf, -np.inf, 5.0]]),
        np.random.RandomState(3).randn(256, 128),
        np.float64(-0.0),
        np.array(np.nan),
        np.array(2.5),
        [1, -2, 0, 3],
        -7,
    ]
    for t in cases:
        got = asymmetric_weights(t, omega)
        ref = np.where(np.asarray(t) >= 0.0, omega, 1.0 - omega)
        assert np.shape(got) == ref.shape and np.asarray(got).dtype == ref.dtype
        assert np.asarray(got).tobytes() == ref.tobytes()
    for t in (0.0, -0.0, np.nan, 1.5, -1.5, 3, -3):
        ref = float(np.where(t >= 0.0, omega, 1.0 - omega))
        assert asymmetric_weights(t, omega) == ref


def test_asymmetric_weights_make_no_index_copy():
    # the sign bytes index the table in place: at peak only they and the
    # weights are held, where an intp index copy would add 8 bytes a number
    t = np.random.RandomState(4).randn(239, 1024)
    tracemalloc.start()
    try:
        w = asymmetric_weights(t, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= w.nbytes + t.size + 100_000


def test_asymmetric_weight_rejects_bad_omega():
    for w in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            asymmetric_weights(1.0, w)


def test_expectile_loss_cases():
    assert loss(2.0, 0.1) == pytest.approx(0.4)
    assert loss(-2.0, 0.1) == pytest.approx(3.6)
    for t in (-3.0, -0.5, 0.0, 0.5, 3.0):
        assert loss(t, 0.5) == pytest.approx(0.5 * t * t)


@given(finite, omegas)
def test_expectile_loss_mirror_symmetry(t, w):
    assert loss(t, w) == pytest.approx(loss(-t, 1.0 - w), rel=1e-12)


@given(finite, finite, st.floats(min_value=0.0, max_value=1.0), omegas)
@settings(max_examples=200)
def test_expectile_loss_convexity(t1, t2, theta, w):
    mid = theta * t1 + (1 - theta) * t2
    bound = theta * loss(t1, w) + (1 - theta) * loss(t2, w)
    assert loss(mid, w) <= bound + 1e-9 * (1 + abs(bound))


def test_residuals_exact_fit_and_simple_case():
    f = FactorPair([[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0], [3.0, 4.0]])
    full = f.x @ f.y.T
    ii, jj = np.nonzero(np.ones((2, 2)))
    obs = EntryObservations((2, 2), ii, jj, full[ii, jj])
    assert np.allclose(residuals(obs, f), 0.0)

    one = EntryObservations((2, 2), [0], [0], [5.0])
    assert residuals(one, f).tolist() == [5.0 - full[0, 0]]


def test_residuals_general_equals_indicator_encoding():
    rng = np.random.RandomState(3)
    for _ in range(5):
        f, obs = random_completion(rng)
        mats = []
        for i, j in zip(obs.row_idx, obs.col_idx):
            a = np.zeros(obs.shape)
            a[i, j] = 1.0
            mats.append(a)
        gen = GeneralObservations(obs.shape, mats, obs.values)
        assert np.allclose(residuals(obs, f), residuals(gen, f), atol=1e-12)


def test_residuals_and_gradient_with_sparse_measurements():
    import scipy.sparse as sp

    rng = np.random.RandomState(31)
    f, obs = random_completion(rng)
    dense_mats, sparse_mats = [], []
    for i, j in zip(obs.row_idx, obs.col_idx):
        a = np.zeros(obs.shape)
        a[i, j] = 1.0
        dense_mats.append(a)
        sparse_mats.append(sp.csr_matrix(a))
    gd = GeneralObservations(obs.shape, dense_mats, obs.values)
    gs = GeneralObservations(obs.shape, sparse_mats, obs.values)
    assert np.allclose(residuals(gd, f), residuals(gs, f), atol=1e-14)
    assert np.allclose(gradient_y(gd, f, 0.2), gradient_y(gs, f, 0.2), atol=1e-14)
    assert np.allclose(gradient_x(gd, f, 0.2), gradient_x(gs, f, 0.2), atol=1e-14)


def test_gaussian_measurements_match_a_per_measurement_loop():
    rng = np.random.RandomState(37)
    m, n, k, p = 5, 4, 2, 30
    f = FactorPair(rng.randn(m, k), rng.randn(n, k))
    mats = rng.randn(p, m, n)
    gobs = GeneralObservations((m, n), mats, rng.randn(p))
    r_loop = np.array([b - float(np.vdot(a @ f.y, f.x)) for b, a in zip(gobs.values, mats)])
    coeff = -2.0 * np.where(r_loop >= 0.0, 0.3, 0.7) * r_loop
    gy_loop = sum(c * (a.T @ f.x) for c, a in zip(coeff, mats)) + 2.0 * 0.1 * f.y
    gx_loop = sum(c * (a @ f.y) for c, a in zip(coeff, mats)) + 2.0 * 0.1 * f.x

    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    assert close(residuals(gobs, f), r_loop)
    assert close(gradient_y(gobs, f, 0.3, 0.1), gy_loop)
    assert close(gradient_x(gobs, f, 0.3, 0.1), gx_loop)


def test_residuals_dimension_mismatch():
    f = FactorPair(np.ones((2, 1)), np.ones((2, 1)))
    obs = EntryObservations((3, 2), [0], [0], [1.0])
    with pytest.raises(ValueError):
        residuals(obs, f)


def test_objective_values():
    f = FactorPair([[1.0]], [[1.0], [1.0]])
    obs = EntryObservations((1, 2), [0, 0], [0, 1], [3.0, -1.0])  # residuals 2, -2
    assert objective(obs, f, 0.1) == pytest.approx(4.0)
    # omega = 0.5 is half the squared residual norm
    r = residuals(obs, f)
    assert objective(obs, f, 0.5) == pytest.approx(0.5 * float(r @ r))
    exact = EntryObservations((1, 2), [0], [0], [1.0])
    assert objective(exact, f, 0.3) == 0.0
    assert objective(exact, f, 0.3, ridge=0.5) == pytest.approx(0.5 * 3.0)


def test_objective_half_ssr_random():
    rng = np.random.RandomState(7)
    for _ in range(10):
        f, obs = random_completion(rng)
        r = residuals(obs, f)
        assert objective(obs, f, 0.5) == pytest.approx(0.5 * float(r @ r), rel=1e-12)


def test_gradients_zero_at_exact_fit():
    rng = np.random.RandomState(5)
    f = FactorPair(rng.rand(4, 2), rng.rand(3, 2))
    full = f.x @ f.y.T
    ii, jj = np.nonzero(np.ones((4, 3)))
    obs = EntryObservations((4, 3), ii, jj, full[ii, jj])
    assert np.allclose(gradient_y(obs, f, 0.2), 0.0, atol=1e-12)
    assert np.allclose(gradient_x(obs, f, 0.2), 0.0, atol=1e-12)


def test_gradient_half_matches_least_squares():
    rng = np.random.RandomState(11)
    for _ in range(5):
        f, obs = random_completion(rng)
        r = residuals(obs, f)
        # hand-coded LS gradient of 0.5 * sum r^2 viewed through the omega=0.5 weights
        ls = np.zeros_like(f.y)
        for t in range(obs.size):
            ls[obs.col_idx[t]] -= r[t] * f.x[obs.row_idx[t]]
        assert np.allclose(gradient_y(obs, f, 0.5), ls, atol=1e-10)


def test_gradient_finite_difference_entry_and_general():
    rng = np.random.RandomState(13)
    for trial in range(6):
        omega = [0.1, 0.5, 0.9, 0.25, 0.75, 0.4][trial]
        ridge = 0.0 if trial % 2 == 0 else 0.3
        f, obs = random_completion(rng, min_resid=1e-2)
        gy = gradient_y(obs, f, omega, ridge)
        gx = gradient_x(obs, f, omega, ridge)
        fy = fd_gradient(obs, f, omega, "y", ridge)
        fx = fd_gradient(obs, f, omega, "x", ridge)
        assert np.linalg.norm(gy - fy) <= 1e-5 * (1 + np.linalg.norm(fy))
        assert np.linalg.norm(gx - fx) <= 1e-5 * (1 + np.linalg.norm(fx))
    # general measurements
    m, n, k, p = 3, 3, 2, 6
    f = FactorPair(rng.randn(m, k), rng.randn(n, k))
    mats = [rng.randn(m, n) for _ in range(p)]
    b = np.array([float(np.vdot(a, f.x @ f.y.T)) for a in mats])
    b += rng.choice([-1.0, 1.0], size=p) * rng.uniform(0.05, 0.5, size=p)
    gobs = GeneralObservations((m, n), mats, b)
    gy = gradient_y(gobs, f, 0.3)
    fy = fd_gradient(gobs, f, 0.3, "y")
    assert np.linalg.norm(gy - fy) <= 1e-5 * (1 + np.linalg.norm(fy))


def test_gradient_transpose_symmetry():
    rng = np.random.RandomState(17)
    for _ in range(5):
        f, obs = random_completion(rng)
        via_transpose = gradient_y(obs.transposed, FactorPair(f.y, f.x), 0.3, 0.1)
        assert np.allclose(gradient_x(obs, f, 0.3, 0.1), via_transpose, atol=1e-12)


def test_scalar_expectile_closed_forms():
    for w in (0.05, 0.25, 0.5, 0.9):
        assert scalar_expectile([0.0, 1.0], w) == pytest.approx(w, abs=1e-12)
    rng = np.random.RandomState(19)
    v = rng.randn(101)
    assert scalar_expectile(v, 0.5) == pytest.approx(v.mean(), abs=1e-12)


def _foc_residual(v, m, w):
    pos = np.clip(v - m, 0, None).sum()
    neg = np.clip(m - v, 0, None).sum()
    return abs(w * pos - (1 - w) * neg)


def test_scalar_expectile_foc_and_monotone():
    rng = np.random.RandomState(23)
    for _ in range(30):
        v = rng.randn(rng.randint(2, 60)) * rng.uniform(0.1, 10)
        prev = -np.inf
        for w in (0.1, 0.5, 0.9):
            e = scalar_expectile(v, w)
            assert _foc_residual(v, e, w) <= 1e-10 * np.abs(v).sum()
            assert e > prev  # strictly increasing for non-constant samples
            prev = e


def _bisect_expectile(v, w, iters=200):
    """Independent oracle: bisection on the (strictly decreasing) FOC."""
    lo, hi = float(v.min()), float(v.max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        g = w * np.clip(v - mid, 0, None).sum() - (1 - w) * np.clip(mid - v, 0, None).sum()
        if g > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_scalar_expectile_skewed_sample():
    rng = np.random.RandomState(29)
    v = rng.chisquare(3, size=20_000)
    e = scalar_expectile(v, 0.1)
    assert e == pytest.approx(_bisect_expectile(v, 0.1), abs=1e-9)
    # low-omega estimate sits below the mean, closer to the mode (= dof - 2 = 1)
    assert e < v.mean()
    assert abs(e - 1.0) < abs(v.mean() - 1.0)


def test_scalar_expectile_constant_and_tied_samples():
    # omega * v / omega need not round back to v, so a weighted mean of a
    # constant sample can miss it; the scan's clip to its segment returns it
    assert scalar_expectile([3.0], 0.1) == 3.0
    rng = np.random.RandomState(31)
    for size in range(1, 11):
        for w in (0.1, 0.3, 0.7, 0.9):
            for c in rng.randn(15) * 10.0 ** rng.randint(-3, 4, size=15):
                e = scalar_expectile(np.full(size, c), w)
                assert abs(e - c) <= 4 * np.spacing(abs(c))
    # samples of one to three distinct values
    for _ in range(300):
        v = rng.choice(rng.randn(rng.randint(1, 4)), rng.randint(1, 12))
        w = rng.uniform(0.01, 0.99)
        assert scalar_expectile(v, w) == pytest.approx(_bisect_expectile(v, w), abs=1e-12)


def test_scalar_expectile_stays_in_its_sample_range():
    # a constant sample returns exactly its value, and no result leaves the
    # sample's [min, max], where a weighted mean can round past its ends
    assert scalar_expectile([0.3, 0.3, 0.3], 0.1) == 0.3
    rng = np.random.RandomState(41)
    for _ in range(400):
        size, w = rng.randint(1, 30), rng.uniform(0.01, 0.99)
        c = rng.randn() * 10.0 ** rng.randint(-3, 4)
        assert scalar_expectile(np.full(size, c), w) == c
        for v in (rng.choice(rng.randn(rng.randint(1, 4)), size), rng.randn(size) * c):
            assert v.min() <= scalar_expectile(v, w) <= v.max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scalar_expectile_near_the_float_range():
    # the sample's sums exceed the float range; the mean is 1.275e308, and
    # 0.9 * 2 (1e308 - m) = 0.1 (m + 1e308) gives m = 1.7e308 / 1.9
    assert scalar_expectile([1.7e308] * 3 + [1.0], 0.5) == pytest.approx(1.275e308, rel=1e-15)
    assert scalar_expectile([1e308, 1e308, -1e308], 0.9) == pytest.approx(1.7e308 / 1.9,
                                                                           rel=1e-15)
    # scaling by a power of two scales the expectile exactly
    v = np.random.RandomState(43).randn(50)
    for w in (0.1, 0.5, 0.9):
        for e in (-1000, -10, 10, 1021):
            assert scalar_expectile(np.ldexp(v, e), w) == np.ldexp(scalar_expectile(v, w), e)


def test_scalar_expectile_rejects_empty():
    with pytest.raises(ValueError):
        scalar_expectile([], 0.5)


@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_product_at_entries_chunks_match_one_gather(count, monkeypatch):
    # a small chunk puts chunk boundaries inside every tested size
    monkeypatch.setattr(emfkit.core, "_PRODUCT_CHUNK", 4096)
    rng = np.random.RandomState(count)
    f = FactorPair(rng.randn(30, 7), rng.randn(40, 7))
    rows, cols = rng.randint(0, 30, count), rng.randint(0, 40, count)
    got = emfkit.core.product_at_entries(f, rows, cols)
    assert np.array_equal(got, np.einsum("pk,pk->p", f.x[rows], f.y[cols]))


@pytest.mark.parametrize("sample", [[1.0, np.nan], [np.inf], [-np.inf, 2.0]])
def test_scalar_expectile_refuses_non_finite_values(sample):
    with pytest.raises(ValueError, match="^sample contains non-finite values$"):
        scalar_expectile(sample, 0.3)
