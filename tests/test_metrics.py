import numpy as np
import pytest

from emfkit.core import FactorPair
from emfkit.metrics import (
    BinSpec,
    DenominatorTooSmallError,
    binned_summaries,
    empirical_cdf,
    relative_errors,
    summarize,
)


def constant_estimate(m, n, value):
    return FactorPair(np.full((m, 1), value), np.ones((n, 1)))


def test_relative_errors_basic():
    truth = np.array([[5.0, 2.0], [4.0, 8.0]])
    est = constant_estimate(2, 2, 4.0)  # predicts 4 everywhere
    errs = relative_errors(truth, est, [(0, 0), (1, 1)])
    assert errs.tolist() == [0.2, 0.5]
    exact = FactorPair(truth, np.eye(2))
    assert np.allclose(relative_errors(truth, exact, [(0, 0), (0, 1), (1, 0)]), 0.0)


def test_relative_errors_matches_brute_force():
    rng = np.random.RandomState(0)
    truth = rng.rand(6, 5) + 0.5
    f = FactorPair(rng.rand(6, 2), rng.rand(5, 2))
    pairs = [(i, j) for i in range(6) for j in range(5)]
    errs = relative_errors(truth, f, pairs)
    full = f.x @ f.y.T
    brute = [abs(truth[i, j] - full[i, j]) / truth[i, j] for i, j in pairs]
    assert np.allclose(errs, brute, atol=1e-14)


def test_relative_errors_divide_by_magnitude_of_negative_truth():
    truth = np.array([[-2.0, 4.0]])
    est = constant_estimate(1, 2, -1.0)
    assert relative_errors(truth, est, [(0, 0)]).tolist() == [0.5]
    assert (relative_errors(truth, est, [(0, 0), (0, 1)]) >= 0).all()


def test_relative_errors_floor():
    truth = np.array([[1.0, 1e-15]])
    f = constant_estimate(1, 2, 1.0)
    with pytest.raises(DenominatorTooSmallError, match=r"\(0, 1\)"):
        relative_errors(truth, f, [(0, 0), (0, 1)], floor=1e-12)


def test_empirical_cdf_values():
    vals = [1.0, 2.0, 3.0]
    assert empirical_cdf(vals, [0.5]).tolist() == [0.0]
    assert empirical_cdf(vals, [3.5]).tolist() == [1.0]
    assert empirical_cdf(vals, [2.0]).tolist() == [pytest.approx(2 / 3)]


def test_empirical_cdf_monotone_and_matches_count_oracle():
    rng = np.random.RandomState(1)
    vals = rng.rand(257)
    grid = np.linspace(-0.2, 1.2, 57)
    cdf = empirical_cdf(vals, grid)
    assert np.all(np.diff(cdf) >= 0)
    assert cdf.min() >= 0 and cdf.max() <= 1
    brute = [(vals <= g).sum() / vals.size for g in grid]
    assert np.allclose(cdf, brute)
    with pytest.raises(ValueError):
        empirical_cdf([], grid)


def test_summarize_values():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.median == 2.5
    assert s.q1 == 1.75 and s.q3 == 3.25
    assert s.iqr == pytest.approx(1.5)
    c = summarize([7.0] * 9)
    assert c.median == 7.0 and c.iqr == 0.0


def test_summarize_matches_percentile_oracle_and_order_invariance():
    rng = np.random.RandomState(2)
    vals = rng.rand(101) * 10
    s = summarize(vals)

    def rank_interp(sorted_v, q):
        pos = (len(sorted_v) - 1) * q
        lo, hi = int(np.floor(pos)), int(np.ceil(pos))
        frac = pos - lo
        return sorted_v[lo] * (1 - frac) + sorted_v[hi] * frac

    sv = np.sort(vals)
    assert s.q1 == pytest.approx(rank_interp(sv, 0.25), abs=1e-12)
    assert s.median == pytest.approx(rank_interp(sv, 0.50), abs=1e-12)
    assert s.q3 == pytest.approx(rank_interp(sv, 0.75), abs=1e-12)

    shuffled = vals.copy()
    rng.shuffle(shuffled)
    s2 = summarize(shuffled)
    assert (s.median, s.q1, s.q3) == (s2.median, s2.q1, s2.q3)
    assert np.array_equal(s.values, s2.values)


def test_binspec_validation():
    with pytest.raises(ValueError):
        BinSpec(np.array([1.0]))
    with pytest.raises(ValueError):
        BinSpec(np.array([1.0, 1.0]))
    spec = BinSpec(np.array([0.0, 0.3, 3.1, 20.0]))
    assert spec.num_bins == 3


def test_binned_single_bin_reduces_to_summarize():
    rng = np.random.RandomState(3)
    truth = rng.rand(5, 4) + 0.5
    f = FactorPair(rng.rand(5, 2), rng.rand(4, 2))
    pairs = [(i, j) for i in range(5) for j in range(4)]
    bins = BinSpec(np.array([0.0, 10.0]))
    out = binned_summaries(truth, f, pairs, bins)
    assert len(out) == 2  # one bin + overflow
    assert out[0].count == 20 and out[1].count == 0
    assert out[1].summary is None
    whole = summarize(relative_errors(truth, f, pairs))
    assert out[0].summary.median == whole.median
    assert out[0].summary.iqr == whole.iqr


def test_binned_partition_and_overflow():
    truth = np.array([[0.1, 0.5], [2.0, 25.0]])
    f = constant_estimate(2, 2, 1.0)
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    bins = BinSpec(np.array([0.0, 0.3, 3.1, 20.0]))
    out = binned_summaries(truth, f, pairs, bins)
    assert [b.count for b in out] == [1, 2, 0, 1]
    assert out[2].summary is None
    assert sum(b.count for b in out) == len(pairs)
    # boundaries are half-open: a truth value exactly at an inner edge
    truth2 = np.array([[0.3, 20.0]])
    out2 = binned_summaries(truth2, constant_estimate(1, 2, 1.0), [(0, 0), (0, 1)], bins)
    assert [b.count for b in out2] == [0, 1, 0, 1]  # 0.3 in second bin, 20 overflows
