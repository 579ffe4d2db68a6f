import re

import numpy as np
import pytest

from emfkit.core import FactorPair, product_at_entries
from emfkit.metrics import (
    BinSpec,
    DenominatorTooSmallError,
    binned_summaries,
    empirical_cdf,
    relative_errors,
    relative_errors_at,
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_relative_errors_floor():
    truth = np.array([[1.0, 1e-15]])
    f = constant_estimate(1, 2, 1.0)
    with pytest.raises(DenominatorTooSmallError) as info:
        relative_errors(truth, f, [(0, 0), (0, 1)], floor=1e-12)
    # numpy scalars print as Python floats, whatever the numpy version
    assert str(info.value) == "truth entry (0, 1) = 1e-15 is below the floor 1e-12"
    with pytest.raises(DenominatorTooSmallError) as info:
        relative_errors_at(np.array([4, 2]), np.array([7, 3]), np.array([-3.0, 0.0]),
                           np.zeros(2), floor=np.float64(0.5))
    assert str(info.value) == "truth entry (2, 3) = 0.0 is below the floor 0.5"
    # no floor admits a zero denominator: it would give an inf error
    with pytest.raises(DenominatorTooSmallError) as info:
        relative_errors_at(np.array([0, 1]), np.array([1, 0]), np.array([1.0, 0.0]),
                           np.full(2, 0.5), floor=0.0)
    assert str(info.value) == "truth entry (1, 0) = 0.0 is zero"
    assert relative_errors_at([0], [0], [5e-324], [0.0], floor=0.0).tolist() == [1.0]
    # nor an error that overflows: a subnormal truth, or a tiny one far from
    # its estimate, is refused by name, with no overflow warning
    for truth, estimate in (1e-310, 1.0), (1e-300, 1e10):
        with pytest.raises(DenominatorTooSmallError) as info:
            relative_errors_at(np.array([2, 5]), np.array([1, 3]), np.array([1.0, truth]),
                               np.array([1.5, estimate]), floor=0.0)
        assert str(info.value) == (f"truth entry (5, 3) = {truth!r} is too small for the "
                                   f"estimate {estimate!r}: the relative error overflows")
    # a huge truth is not too small: a difference past the float range is
    # not an overflowing error
    big = np.finfo(np.float64).max
    assert relative_errors_at([0, 1, 2], [0, 0, 0], [1e308, -big, 4.0], [-1e308, big, 3.0],
                              floor=0.0).tolist() == [2.0, 2.0, 0.25]


def test_relative_errors_at_aligned_values_match_the_dense_wrapper():
    rng = np.random.RandomState(3)
    truth = rng.rand(7, 6) - 0.5  # both signs
    f = FactorPair(rng.rand(7, 2), rng.rand(6, 2))
    rows, cols = np.divmod(rng.permutation(42)[:30], 6)
    estimate = product_at_entries(f, rows, cols)
    errs = relative_errors_at(rows, cols, truth[rows, cols], estimate)
    assert errs.tobytes() == relative_errors(truth, f, np.column_stack([rows, cols])).tobytes()
    brute = np.abs(truth[rows, cols] - estimate) / np.abs(truth[rows, cols])
    assert errs.tobytes() == brute.tobytes()


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


def test_summarize_leaves_its_input_in_order():
    rng = np.random.RandomState(8)
    for vals in (rng.rand(1001), np.array([3.0, np.nan, 1.0, 2.0])):
        before = vals.copy()
        summarize(vals)
        assert np.array_equal(vals, before, equal_nan=True)
    errors, values = rng.rand(500), rng.rand(500) * 4.0
    before = errors.copy()
    binned = binned_summaries(errors, values, BinSpec(np.array([0.0, 1.0, 3.0])))
    assert np.array_equal(errors, before)
    assert binned[1].summary == summarize(errors[(values >= 1.0) & (values < 3.0)])


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
    assert (s.minimum, s.maximum, s.count) == (s2.minimum, s2.maximum, s2.count)
    assert (s.minimum, s.maximum) == (sv[0], sv[-1])


def test_binspec_validation():
    with pytest.raises(ValueError):
        BinSpec(np.array([1.0]))
    with pytest.raises(ValueError):
        BinSpec(np.array([1.0, 1.0]))
    spec = BinSpec([0, 0.3, 3.1, 20])
    assert spec.boundaries.dtype == np.float64 and spec.boundaries.tolist() == [0, 0.3, 3.1, 20]


def test_binned_single_bin_reduces_to_summarize():
    rng = np.random.RandomState(3)
    truth = rng.rand(5, 4) + 0.5
    f = FactorPair(rng.rand(5, 2), rng.rand(4, 2))
    pairs = [(i, j) for i in range(5) for j in range(4)]
    bins = BinSpec(np.array([0.0, 10.0]))
    errors = relative_errors(truth, f, pairs)
    out = binned_summaries(errors, truth.ravel(), bins)
    assert len(out) == 2  # one bin + overflow
    assert out[0].count == 20 and out[1].count == 0
    assert out[1].summary is None
    whole = summarize(errors)
    assert out[0].summary.median == whole.median
    assert out[0].summary.iqr == whole.iqr


def test_binned_partition_and_overflow():
    truth = np.array([[0.1, 0.5], [2.0, 25.0]])
    f = constant_estimate(2, 2, 1.0)
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    bins = BinSpec(np.array([0.0, 0.3, 3.1, 20.0]))
    errors = relative_errors(truth, f, pairs)
    out = binned_summaries(errors, truth.ravel(), bins)
    assert [b.count for b in out] == [1, 2, 0, 1]
    assert out[2].summary is None
    assert sum(b.count for b in out) == len(pairs)
    # each bin summarizes the errors of its own entries
    ends = [(b.summary.minimum, b.summary.maximum, b.summary.count) for b in out if b.summary]
    assert ends == [(errors[0], errors[0], 1), (min(errors[1:3]), max(errors[1:3]), 2),
                    (errors[3], errors[3], 1)]
    # boundaries are half-open: a truth value exactly at an inner edge
    out2 = binned_summaries(np.array([0.5, 0.25]), np.array([0.3, 20.0]), bins)
    assert [b.count for b in out2] == [0, 1, 0, 1]  # 0.3 in second bin, 20 overflows


def test_binned_rejects_mismatched_inputs():
    bins = BinSpec(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        binned_summaries(np.zeros(3), np.zeros(2), bins)


def test_relative_errors_memory_is_bounded():
    import tracemalloc

    # 1,000,000 entries at rank 10: gathering both factors at every entry
    # at once would take 160 MB
    rng = np.random.RandomState(5)
    m = n = 1000
    f = FactorPair(rng.rand(m, 10), rng.rand(n, 10))
    truth = rng.rand(m, n) + 0.5
    pairs = np.column_stack(np.divmod(np.arange(m * n), n))
    tracemalloc.start()
    try:
        errs = relative_errors(truth, f, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    ref = np.abs(truth.ravel() - (f.x @ f.y.T).ravel()) / truth.ravel()
    assert np.allclose(errs, ref, rtol=0, atol=1e-12)


def test_relative_errors_checks_eval_indices_against_the_truth():
    truth = np.arange(1.0, 7.0).reshape(2, 3)
    f = constant_estimate(2, 3, 1.0)
    with pytest.raises(ValueError, match=r"row index -1 out of range \[0, 2\)"):
        relative_errors(truth, f, [(0, 0), (-1, 0)])
    with pytest.raises(ValueError, match=r"column index 3 out of range \[0, 3\)"):
        relative_errors(truth, f, [(1, 3)])
    with pytest.raises(ValueError, match="^eval_set must be integers, got dtype float64$"):
        relative_errors(truth, f, [(0.5, 2.9)])
    with pytest.raises(ValueError, match="^eval_set must be integers, got dtype bool$"):
        relative_errors(truth, f, [(True, False)])


def test_relative_errors_at_rejects_a_nan_truth():
    with pytest.raises(DenominatorTooSmallError) as info:
        relative_errors_at(np.array([0, 1]), np.array([0, 2]), np.array([1.0, np.nan]),
                           np.zeros(2))
    assert str(info.value) == "truth entry (1, 2) = nan is below the floor 1e-12"


def test_summaries_of_nan_entries_match_the_ends_of_a_sorted_sample():
    errors = np.array([0.5, np.nan, 0.25, 2.0])
    s = summarize(errors)
    v = np.sort(errors)  # NaN sorts last
    assert s.minimum == v[0] == 0.25 and np.isnan(s.maximum) and np.isnan(v[-1])
    # a NaN truth value lies in no bin: it lands in the overflow bucket
    out = binned_summaries(np.array([0.1, 0.2, 0.3]), np.array([0.5, np.nan, 30.0]),
                           BinSpec(np.array([0.0, 1.0, 20.0])))
    assert [b.count for b in out] == [1, 0, 2]
    assert (out[2].summary.minimum, out[2].summary.maximum) == (0.2, 0.3)


def test_summaries_hold_no_copy_of_the_sample():
    import tracemalloc

    # about 1M errors, most in the top bin and some in the overflow bucket;
    # sorting copies or a per-entry bin index would each add one more sample
    rng = np.random.RandomState(6)
    errors = rng.rand(1 << 20)
    values = rng.rand(errors.size) * 25.0 - 1.0
    bins = BinSpec(np.array([0.0, 0.3, 3.1, 20.0]))
    tracemalloc.start()
    try:
        whole = summarize(errors)
        binned = binned_summaries(errors, values, bins)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * errors.nbytes
    assert whole.count == sum(b.count for b in binned) == errors.size


@pytest.mark.parametrize("call, message", [
    (lambda: relative_errors(np.ones((2, 2)), FactorPair(np.ones((2, 1)), np.ones((2, 1))),
                             [0, 1]), "eval_set must be a sequence of (i, j) pairs"),
    (lambda: relative_errors(np.ones((2, 2)), FactorPair(np.ones((2, 1)), np.ones((2, 1))),
                             [[0, 1, 1]]), "eval_set must be a sequence of (i, j) pairs"),
    (lambda: summarize([]), "summarize needs a non-empty sample"),
], ids=["flat eval_set", "triples", "empty sample"])
def test_metrics_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
