import numpy as np
import pytest

from emfkit.rng import Pcg32

# First six outputs of the reference pcg32 demo stream (seed 42, seq 54).
REFERENCE_STREAM = [0xA15C02B7, 0x7B47F409, 0xBA1D3330, 0x83D2F293, 0xBFA4784B, 0xCBED606E]


def test_reference_vectors():
    g = Pcg32(42, 54)
    assert [g.next_uint32() for _ in range(6)] == REFERENCE_STREAM


def test_batch_matches_scalar_and_continues():
    a, b = Pcg32(7, 3), Pcg32(7, 3)
    batch = a.uint32_array(257)
    scalar = np.array([b.next_uint32() for _ in range(257)], dtype=np.uint32)
    assert np.array_equal(batch, scalar)
    # state advanced identically
    assert a.next_uint32() == b.next_uint32()


def test_streams_differ_by_seed_and_seq():
    assert Pcg32(1, 0).uint32_array(8).tolist() != Pcg32(2, 0).uint32_array(8).tolist()
    assert Pcg32(1, 0).uint32_array(8).tolist() != Pcg32(1, 1).uint32_array(8).tolist()


def test_uniform_range_and_determinism():
    u = Pcg32(5).uniform(50_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(u, Pcg32(5).uniform(50_000))
    assert abs(u.mean() - 0.5) < 5e-3


def test_normal_moments():
    z = Pcg32(11).normal(400_001)  # odd count exercises the dropped tail value
    assert abs(z.mean()) < 5e-3
    assert abs(z.std() - 1.0) < 5e-3


def test_below_unbiased_small_bound():
    g = Pcg32(9)
    draws = np.array([g.below(3) for _ in range(9000)])
    assert set(draws.tolist()) == {0, 1, 2}
    counts = np.bincount(draws)
    assert np.all(np.abs(counts - 3000) < 300)


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        Pcg32(0).below(0)


def test_permutation_prefix_full_is_permutation():
    p = Pcg32(4).permutation_prefix(40, 40)
    assert sorted(p.tolist()) == list(range(40))


def test_permutation_prefix_distinct_and_in_range():
    p = Pcg32(4).permutation_prefix(1000, 300)
    assert len(set(p.tolist())) == 300
    assert p.min() >= 0 and p.max() < 1000


def scalar_permutation_prefix(g, n, count):
    """The per-draw Fisher-Yates loop, the reference for the batched one."""
    picked = np.empty(count, dtype=np.int64)
    moved = {}
    for i in range(count):
        j = i + g.below(n - i)
        vi = moved.get(i, i)
        vj = moved.get(j, j)
        picked[i] = vj
        moved[j] = vi
    return picked


def _prefix_cases():
    rng = np.random.RandomState(12)
    cases = [(1, 0), (1, 1), (9, 0), (9, 9), (40, 40), (1000, 300), (1000, 1000),
             (2**32, 400), (2**32 - 1, 400), (2**31 + 1, 400)]
    cases += [(int(n), int(rng.randint(0, n + 1))) for n in rng.randint(1, 300, size=60)]
    return cases


@pytest.mark.parametrize("seed, seq", [(0, 0), (4, 4), (123456789, 3), (2**40, 7)])
def test_permutation_prefix_matches_scalar_loop(seed, seq):
    for n, count in _prefix_cases():
        a, b = Pcg32(seed, seq), Pcg32(seed, seq)
        got = a.permutation_prefix(n, count)
        assert got.dtype == np.int64
        assert np.array_equal(got, scalar_permutation_prefix(b, n, count)), (n, count)
        # both consumed the same raw draws
        assert a.uint32_array(3).tolist() == [b.next_uint32() for _ in range(3)]


def test_permutation_prefix_matches_scalar_loop_when_a_quarter_rejects():
    # 2^32 mod 3*2^30 = 2^30: a quarter of the raw draws are rejected, so
    # most batches end inside a chain of rejections
    n = 3 * 2**30
    for seed in range(3):
        a, b = Pcg32(seed, 4), Pcg32(seed, 4)
        got = a.permutation_prefix(n, 3000)
        assert np.array_equal(got, scalar_permutation_prefix(b, n, 3000))
        assert a.next_uint32() == b.next_uint32()


def test_permutation_prefix_pinned_vectors():
    g = Pcg32(7, 4)
    assert g.permutation_prefix(1000, 12).tolist() == [
        652, 853, 765, 831, 595, 291, 111, 339, 622, 795, 394, 898]
    assert g.next_uint32() == 3956148511
    g = Pcg32(2024, 4)
    assert g.permutation_prefix(3 * 2**30, 8).tolist() == [
        2200086862, 1820913087, 429879114, 1824622059,
        2024895941, 507291812, 2714562660, 1521165534]
    assert g.next_uint32() == 1981532404


def test_sample_mask_pinned_vector():
    from emfkit.synth import sample_mask

    assert sample_mask(6, 5, 0.3, seed=9).tolist() == [
        [2, 2], [3, 3], [0, 0], [5, 1], [1, 3], [3, 4], [0, 3], [4, 1], [0, 1]]


def test_bounded_draws_reject_bounds_above_2_32():
    # every raw draw would be rejected: the loop would never end
    with pytest.raises(ValueError):
        Pcg32(0).below(2**32 + 1)
    with pytest.raises(ValueError):
        Pcg32(0).permutation_prefix(2**32 + 1, 1)
    with pytest.raises(ValueError):
        Pcg32(0).permutation_prefix(5, 6)
    assert Pcg32(0).below(2**32) == Pcg32(0).next_uint32()
