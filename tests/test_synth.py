import re

import numpy as np
import pytest

import emfkit.synth
from emfkit.core import FactorPair
from emfkit.synth import (
    apply_measurements,
    chi_square_noise,
    gaussian_measurements,
    gen_low_rank,
    make_completion_instance,
    sample_mask,
)
from oracle import residuals


def test_gen_low_rank_range_and_determinism():
    f = gen_low_rank(20, 15, 3, seed=5)
    for a in (f.x, f.y):
        assert a.min() >= 0.0 and a.max() <= 1.0
    again = gen_low_rank(20, 15, 3, seed=5)
    assert np.array_equal(f.x, again.x) and np.array_equal(f.y, again.y)
    other = gen_low_rank(20, 15, 3, seed=6)
    assert not np.array_equal(f.x, other.x)
    product = f.x @ f.y.T
    assert product.min() >= 0.0 and product.max() <= 3.0


def test_gen_low_rank_exact_rank():
    f = gen_low_rank(30, 25, 4, seed=1)
    s = np.linalg.svd(f.x @ f.y.T, compute_uv=False)
    assert s[3] > 1e-8
    assert s[4] < 1e-10


def test_gen_low_rank_validation():
    with pytest.raises(ValueError):
        gen_low_rank(3, 3, 4, seed=0)


def test_chi_square_noise_moments():
    z = chi_square_noise(1000, 1000, dof=3, scale=0.5, seed=2)
    assert z.min() >= 0.0
    assert z.mean() == pytest.approx(0.5 * 3.0, rel=0.01)
    flat = z.ravel() / 0.5
    skew = np.mean((flat - flat.mean()) ** 3) / flat.std() ** 3
    assert skew == pytest.approx(np.sqrt(8.0 / 3.0), rel=0.05)


def test_chi_square_noise_zero_scale_and_validation():
    assert np.all(chi_square_noise(4, 3, 3, 0.0, seed=1) == 0.0)
    with pytest.raises(ValueError):
        chi_square_noise(4, 3, 0, 1.0, seed=1)


def test_sample_mask_counts_and_uniqueness():
    # the two sampling rates of the synthetic recipe: 50k and 100k entries
    assert sample_mask(1000, 1000, 0.05, seed=3).shape == (50_000, 2)
    mask = sample_mask(1000, 1000, 0.1, seed=3)
    assert mask.shape == (100_000, 2)
    flat = mask[:, 0] * 1000 + mask[:, 1]
    assert np.unique(flat).size == flat.size
    full = sample_mask(10, 7, 1.0, seed=0)
    assert sorted((full[:, 0] * 7 + full[:, 1]).tolist()) == list(range(70))
    with pytest.raises(ValueError):
        sample_mask(10, 10, 0.0, seed=0)


def test_sample_mask_row_balance():
    # chi-square goodness of fit on per-row counts, alpha = 0.001 per seed
    from scipy.stats import chi2

    m, n, rate = 20, 50, 0.3
    expected = n * rate
    critical = chi2.ppf(0.999, df=m - 1)
    rejections = 0
    for seed in range(40):
        mask = sample_mask(m, n, rate, seed)
        counts = np.bincount(mask[:, 0], minlength=m)
        if ((counts - expected) ** 2 / expected).sum() > critical:
            rejections += 1
    # expect ~0.04 rejections over 40 seeds; more than 2 flags real imbalance
    assert rejections <= 2


def test_gaussian_measurements_moments_and_apply():
    mats = gaussian_measurements(6, 5, 40, seed=4)
    assert isinstance(mats, np.ndarray) and mats.shape == (40, 6, 5)
    pool = np.concatenate([a.ravel() for a in mats])
    assert abs(pool.mean()) < 0.05
    assert abs(pool.std() - 1.0) < 0.02
    again = gaussian_measurements(6, 5, 40, seed=4)
    assert all(np.array_equal(a, b) for a, b in zip(mats, again))

    truth = np.arange(30, dtype=float).reshape(6, 5)
    gobs = apply_measurements(mats[:1], truth)
    brute = sum(mats[0][i, j] * truth[i, j] for i in range(6) for j in range(5))
    assert gobs.values[0] == pytest.approx(brute, rel=1e-12)


def test_gaussian_measurements_cap(monkeypatch):
    monkeypatch.setattr(emfkit.synth, "_MEASUREMENT_CAP", 10_000)
    with pytest.raises(ValueError, match="exceeds the cap of 10000"):
        gaussian_measurements(100, 100, 10, seed=0)
    assert gaussian_measurements(10, 10, 100, seed=0).shape == (100, 10, 10)


# The noise is drawn at the sampled entries alone, at shares from sparse to
# every entry.  Each parity of dof splits an entry's normals over Box-Muller
# pairs differently.
@pytest.mark.parametrize("dof", [1, 2, 3])
@pytest.mark.parametrize("m, n, rate", [
    (30, 20, 0.05), (30, 20, 0.25), (30, 20, 0.45), (30, 20, 0.5), (30, 20, 0.75),
    (30, 20, 1.0), (7, 13, 0.35), (7, 13, 0.9),
])
def test_make_completion_instance_partition_and_noise_sign(m, n, rate, dof):
    inst = make_completion_instance(m, n, 3, 0.5, dof, rate, seed=6)
    assert inst.observed.size == int(rate * m * n)
    assert len(inst.heldout) == m * n - inst.observed.size
    flat = set((inst.observed.row_idx * n + inst.observed.col_idx).tolist())
    flat |= set((inst.heldout[:, 0] * n + inst.heldout[:, 1]).tolist())
    assert flat == set(range(m * n))
    rows, cols = inst.observed.row_idx, inst.observed.col_idx
    noisy = inst.truth + chi_square_noise(m, n, dof, 0.5, seed=6)
    assert inst.observed.values.tobytes() == noisy[rows, cols].tobytes()
    assert np.all(inst.observed.values >= inst.truth[rows, cols])  # chi-square noise is >= 0


def test_c3_instance_noise_is_the_whole_stream_sampled():
    # the skewed-noise experiment's instance: 1000x1000, 10% sampled, dof 3
    inst = make_completion_instance(1000, 1000, 10, 0.5, 3, 0.1, seed=5000)
    rows, cols = inst.observed.row_idx, inst.observed.col_idx
    noisy = inst.truth + chi_square_noise(1000, 1000, 3, 0.5, seed=5000)
    assert inst.observed.values.tobytes() == noisy[rows, cols].tobytes()


def test_a_sparse_instance_draws_no_whole_noise_stream(monkeypatch):
    def refuse(self, count):
        raise AssertionError(f"normal({count}) drawn")

    monkeypatch.setattr(emfkit.synth.Pcg32, "normal", refuse)
    inst = make_completion_instance(40, 30, 3, 0.5, 3, 0.1, seed=2)
    assert inst.observed.size == 120


def test_make_completion_instance_noiseless_full():
    inst = make_completion_instance(8, 6, 2, 0.0, 3, 1.0, seed=7)
    assert inst.observed.size == 48
    assert len(inst.heldout) == 0
    rows, cols = inst.observed.row_idx, inst.observed.col_idx
    assert np.array_equal(inst.observed.values, inst.truth[rows, cols])
    f = FactorPair(np.zeros((8, 2)), np.zeros((6, 2)))
    r = residuals(inst.observed, f)
    assert np.allclose(r, inst.truth[inst.observed.row_idx, inst.observed.col_idx])


def test_instances_are_reproducible():
    a = make_completion_instance(15, 12, 2, 0.5, 3, 0.4, seed=9)
    b = make_completion_instance(15, 12, 2, 0.5, 3, 0.4, seed=9)
    assert np.array_equal(a.truth, b.truth)
    assert np.array_equal(a.observed.values, b.observed.values)
    assert np.array_equal(a.heldout, b.heldout)
    c = make_completion_instance(15, 12, 2, 0.5, 3, 0.4, seed=np.int64(9))
    assert np.array_equal(a.observed.values, c.observed.values)
    assert np.array_equal(a.heldout, c.heldout)


@pytest.mark.parametrize("call, message", [
    (lambda: chi_square_noise(0, 3, 3, 0.5, 0), "invalid dimensions m=0, n=3"),
    (lambda: chi_square_noise(2, 3, 0, 0.5, 0), "dof must be >= 1, got 0"),
    (lambda: chi_square_noise(2, 3, 3, -0.5, 0), "scale must be >= 0, got -0.5"),
    (lambda: sample_mask(3, 3, 0.1, 0), "rate 0.1 selects no entries of a 3x3 matrix"),
    (lambda: gaussian_measurements(2, 2, 0, 0), "p must be >= 1, got 0"),
], ids=["zero rows", "zero dof", "negative scale", "empty mask", "no measurements"])
def test_synth_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
