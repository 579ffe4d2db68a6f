import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from emfkit.rng import _BLOCK, Pcg32
from oracle import below

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


@pytest.mark.parametrize("count", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_batch_matches_scalar_across_block_boundaries(count):
    a, b = Pcg32(2**40 + 3, 9), Pcg32(2**40 + 3, 9)
    batch = a.uint32_array(count)
    assert batch.dtype == np.uint32
    assert batch.tolist() == [b.next_uint32() for _ in range(count)]
    assert a.next_uint32() == b.next_uint32()


def box_muller(u, count):
    """Box-Muller over all uniform pairs at once, the reference for the blocked
    `normal`."""
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    theta = (2.0 * math.pi) * u[1::2]
    out = np.empty(u.size)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]


_BLOCK_NORMALS = _BLOCK // 2  # two uniforms, four raw draws, per pair


@pytest.mark.parametrize("count", [0, 1, 2, _BLOCK_NORMALS - 1, _BLOCK_NORMALS,
                                   _BLOCK_NORMALS + 1, _BLOCK_NORMALS + 2,
                                   2 * _BLOCK_NORMALS + 3])
def test_normal_matches_one_shot_box_muller(count):
    a, b = Pcg32(31, 6), Pcg32(31, 6)
    pairs = (count + 1) // 2
    got = a.normal(count)
    assert got.shape == (count,)
    assert np.array_equal(got, box_muller(b.uniform(2 * pairs), count))
    assert a.next_uint32() == b.next_uint32()


# an odd count, so normal(count) drops the second value of its last pair
_AT_COUNT = 4 * _BLOCK_NORMALS + 3
# where normal()'s blocks meet, and the ends of the stream
_SEAMS = sorted({0, _AT_COUNT - 1} | {k * _BLOCK_NORMALS + d
                                      for k in range(1, 5) for d in range(-2, 3)})


def _advanced(seed, seq):
    """A generator moved an odd number of raw draws past its seeding."""
    g = Pcg32(seed, seq)
    g.uniform(3)
    g.next_uint32()
    return g


@pytest.mark.parametrize("indices", [
    _SEAMS,
    _SEAMS[::-1],
    [5, 5, 4, 5, 0, _AT_COUNT - 1, 4, 4],
    np.arange(_AT_COUNT),  # several of normal_at's own chunks
    np.arange(_AT_COUNT)[::-3],
    np.random.RandomState(8).randint(0, _AT_COUNT, size=(64, 3)),
    np.array(_SEAMS, dtype=np.uint32),
    [_AT_COUNT - 1],
], ids=["seams", "seams reversed", "repeated", "all", "strided down", "2-d random",
        "uint32", "one"])
def test_normal_at_is_the_normal_stream_indexed(indices):
    a, b = _advanced(17, 4), _advanced(17, 4)
    full = b.normal(_AT_COUNT)
    got = a.normal_at(indices)
    expected = full[np.asarray(indices)]
    assert got.shape == expected.shape and got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()
    # the call leaves the generator where it was: its normals are as fresh
    assert np.array_equal(a.normal(_AT_COUNT), full)


@pytest.mark.parametrize("indices", [[], np.array([], dtype=np.int64),
                                     np.zeros((0, 3), dtype=np.int64)])
def test_normal_at_of_no_indices_is_empty(indices):
    got = Pcg32(3).normal_at(indices)
    assert got.shape == np.shape(indices) and got.dtype == np.float64


def test_normal_at_refuses_negative_and_non_integer_indices():
    g = Pcg32(1)
    with pytest.raises(ValueError, match="^indices must be nonnegative, got -1$"):
        g.normal_at([3, -1, 2])
    with pytest.raises(TypeError, match="^indices must be integers, got dtype float64$"):
        g.normal_at([1.0, 2.0])


def test_multi_block_pinned_vectors():
    # values of the unblocked whole-length jump-ahead, at fixed counts (three
    # blocks and a part at 2^14), so no block size may move the stream
    raw = Pcg32(2024, 5).uint32_array(3 * 2**14 + 5)
    assert raw[:4].tolist() == [0x5BC0064E, 0xC7D0DBF4, 0xCD7E0F8E, 0xCD8F795B]
    assert raw[-4:].tolist() == [0xF4297141, 0x21ACC182, 0x4DBFB404, 0x6F6811E3]
    assert hashlib.sha256(raw.tobytes()).hexdigest() == (
        "f05ac6783eb857aafe82f28864fad549e13eed308ae91e9d24373c93d5a97bab")
    u = Pcg32(2024, 5).uniform(2**14 + 7)
    assert hashlib.sha256(u.tobytes()).hexdigest() == (
        "95db52ef054a097aa89602c67409068c99b9152fd4b9d0cbe1ebb9075d5555ef")


def test_normal_takes_about_its_output_memory():
    g = Pcg32(0, 5)
    tracemalloc.start()
    try:
        z = g.normal(2_000_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * z.nbytes, peak / z.nbytes


@pytest.mark.parametrize("method", ["uint32_array", "uniform", "normal"])
def test_batched_streams_reject_negative_counts(method):
    # without the check, normal(-1) would round up to zero pairs and return []
    with pytest.raises(ValueError, match="count must be nonnegative"):
        getattr(Pcg32(0), method)(-1)


def test_streams_differ_by_seed_and_seq():
    assert Pcg32(1, 0).uint32_array(8).tolist() != Pcg32(2, 0).uint32_array(8).tolist()
    assert Pcg32(1, 0).uint32_array(8).tolist() != Pcg32(1, 1).uint32_array(8).tolist()


def test_numpy_integer_seeds_give_the_python_int_stream():
    # a state above 2^63 plus a numpy int64 seed overflowed
    for seed, seq in ((5, 0), (2**40, 7)):
        expected = Pcg32(seed, seq).uint32_array(8)
        assert np.array_equal(Pcg32(np.int64(seed), np.uint32(seq)).uint32_array(8), expected)
    with pytest.raises(TypeError):
        Pcg32(2.0)


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
    draws = np.array([below(g, 3) for _ in range(9000)])
    assert set(draws.tolist()) == {0, 1, 2}
    counts = np.bincount(draws)
    assert np.all(np.abs(counts - 3000) < 300)


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        below(Pcg32(0), 0)


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
        j = i + below(g, n - i)
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
        below(Pcg32(0), 2**32 + 1)
    with pytest.raises(ValueError):
        Pcg32(0).permutation_prefix(2**32 + 1, 1)
    with pytest.raises(ValueError):
        Pcg32(0).permutation_prefix(5, 6)
    assert below(Pcg32(0), 2**32) == Pcg32(0).next_uint32()


@pytest.mark.parametrize("seed, seq", [(-1, 0), (0, -1), (-5, -5)])
def test_negative_seed_or_stream_is_refused(seed, seq):
    with pytest.raises(ValueError, match="^seed and seq must be nonnegative integers$"):
        Pcg32(seed, seq)
