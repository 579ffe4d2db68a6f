"""Self-contained seeded random number generation.

All randomness in this package flows through :class:`Pcg32`, a PCG-XSH-RR
64/32 generator (O'Neill's pcg32).  The algorithm is pinned here, with test
vectors in the test suite, so that experiment streams are bit-reproducible
across platforms and releases:

* state update: ``s' = s * 6364136223846793005 + inc  (mod 2^64)``,
  ``inc`` odd.
* output: ``xorshifted = ((s >> 18) ^ s) >> 27`` (low 32 bits), rotated
  right by ``s >> 59``.
* seeding, given ``(seed, seq)``: ``inc = (seq << 1) | 1``, ``s = 0``,
  step, ``s += seed``, step.

Derived streams are layered on the raw 32-bit output and are equally pinned:

* ``uniform``: two draws per double, hi word first; value is the top 53
  bits of the 64-bit concatenation times ``2**-53`` (in ``[0, 1)``).
* ``normal``: Box-Muller on uniform pairs ``(u1, u2)``; the pair yields
  ``r*cos(theta), r*sin(theta)`` with ``r = sqrt(-2*log(1 - u1))`` and
  ``theta = 2*pi*u2``.  An odd request consumes a full pair and drops the
  second value.
* ``normal_at(indices)``: random access into the ``normal`` stream that
  starts at the current state, which it does not advance.  Normal t is
  value ``t % 2`` (cos, then sin) of pair ``t // 2``, whose ``u1`` and
  ``u2`` come from raw draws ``4*(t // 2)``, ``+1`` and ``+2``, ``+3``.
  So ``normal_at(idx) == normal(N)[idx]`` for every ``N > max(idx)``.
* ``permutation_prefix(n, count)``: partial Fisher-Yates.  Step i = 0, 1,
  ..., count - 1 takes ``j = i + r mod (n - i)``, r the step's first raw
  draw not below ``2^32 mod (n - i)`` (so j is unbiased), and swaps
  positions i and j of range(n); the prefix is the values left at
  positions 0..count-1.  The draw order is pinned with the rest: sampling
  masks and train splits are built on it.

The batched streams (``uint32_array``, ``uniform``, ``normal``) work through
blocks of at most ``_BLOCK`` raw draws.  A block's states are computed from
its first one by LCG jump-ahead (Brown, "Random number generation with
arbitrary strides", 1994) with two tables built once at import, ``a^i`` and
``sum_{j<i} a^j`` for ``i < _BLOCK``; the output function is applied to
them and the result written into the request's output.  Temporaries are
O(block), so a request takes about its output's memory, and the values are
the same as ``count`` scalar steps.  ``normal_at`` reaches a pair's first
draw from its block's first state, read from a table of block-start states
built the same way with ``a^_BLOCK`` as the multiplier.  Both paths apply
one set of output, uniform and Box-Muller functions, so their values are
the same bits by construction.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_MULT = 6364136223846793005
_MASK64 = (1 << 64) - 1

# Raw draws per block of the batched streams; the jump-ahead tables are this
# long.  A block's temporaries (at most 128 KiB each) stay in cache, and
# glibc's malloc reuses them: at 2^15 and 2^16, normal() spent a quarter to
# a third of its time in page faults on memory handed back and taken again.
_BLOCK_BITS = 14
_BLOCK = 1 << _BLOCK_BITS


def _jump_tables(mult: int, count: int):
    """mult^i and sum_{j<i} mult^j (mod 2^64) for i < count."""
    powers = np.full(count, mult, dtype=np.uint64)
    powers[:1] = 1
    np.multiply.accumulate(powers, out=powers)
    geo = np.zeros(count, dtype=np.uint64)
    np.cumsum(powers[:-1], out=geo[1:])
    return powers, geo


_POW, _GEO = _jump_tables(_MULT, _BLOCK)
_POW.flags.writeable = _GEO.flags.writeable = False
# a^_BLOCK and sum_{j<_BLOCK} a^j: one block's step, for the block-start
# states of random access
_BLOCK_MULT = int(_POW[-1]) * _MULT & _MASK64
_BLOCK_SUM = (int(_GEO[-1]) + int(_POW[-1])) & _MASK64


class Pcg32:
    """PCG-XSH-RR 64/32 stream identified by (seed, seq)."""

    def __init__(self, seed: int, seq: int = 0):
        seed, seq = operator.index(seed), operator.index(seq)  # numpy ints overflow below
        if seed < 0 or seq < 0:
            raise ValueError("seed and seq must be nonnegative integers")
        self._inc = (((seq << 1) | 1)) & _MASK64
        self._state = 0
        self.next_uint32()
        self._state = (self._state + seed) & _MASK64
        self.next_uint32()

    def next_uint32(self) -> int:
        old = self._state
        self._state = (old * _MULT + self._inc) & _MASK64
        xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF

    def uint32_array(self, count: int) -> np.ndarray:
        """Vectorized batch of raw draws, identical to `count` scalar calls.

        Works through blocks of at most ``_BLOCK`` draws.  A block's states
        follow from its first one by the LCG jump-ahead identity
        s_i = a^i s_0 + c * sum_{j<i} a^j, with both coefficients read from
        tables built at import and all arithmetic wrapping mod 2^64, so the
        uint64 temporaries are O(block) whatever `count` is.
        """
        _check_count(count)
        out = np.empty(count, dtype=np.uint32)
        for start in range(0, count, _BLOCK):
            self._fill_raw(out[start:start + _BLOCK])
        return out

    def uniform(self, count: int) -> np.ndarray:
        """i.i.d. doubles in [0, 1), 53-bit resolution."""
        _check_count(count)
        out = np.empty(count)
        for start in range(0, count, _BLOCK // 2):
            self._fill_uniform(out[start:start + _BLOCK // 2])
        return out

    def normal(self, count: int) -> np.ndarray:
        """i.i.d. standard normals via Box-Muller."""
        _check_count(count)
        pairs = (count + 1) // 2
        out = np.empty(2 * pairs)
        # each block is filled with uniforms, then overwritten by its normals
        for start in range(0, 2 * pairs, _BLOCK // 2):
            u = out[start:start + _BLOCK // 2]
            self._fill_uniform(u)
            _box_muller(u[0::2], u[1::2])
        return out[:count]

    def normal_at(self, indices) -> np.ndarray:
        """The normals at stream positions `indices`, in their shape: exactly
        ``normal(N)[indices]`` for any ``N > max(indices)``.  The generator
        does not advance.

        Normal t is value t % 2 of Box-Muller pair t // 2, made from raw
        draws 4 (t // 2) to 4 (t // 2) + 3.  A pair's first state is jumped
        to from the state that starts its block of ``_BLOCK`` raw draws,
        and its other three are stepped to; the block-start states form a
        table of about max(indices) / (_BLOCK / 2) entries.  The indices are
        worked through in chunks of ``_BLOCK``, in their order, and
        neighbours in a chunk that share a pair share its draw: a run t,
        t + 1, ... costs one pair per two normals.  Nothing is sorted; a
        pair repeated further apart is drawn again.
        """
        t = np.asarray(indices)
        if t.size == 0:
            return np.empty(t.shape)
        if t.dtype.kind not in "iu":
            raise TypeError(f"indices must be integers, got dtype {t.dtype}")
        flat = t.reshape(-1).astype(np.int64, copy=False)
        if flat.min() < 0:
            raise ValueError(f"indices must be nonnegative, got {flat.min()}")
        last = 4 * (int(flat.max()) // 2)  # raw index of the last pair's first draw
        powers, sums = _jump_tables(_BLOCK_MULT, (last >> _BLOCK_BITS) + 1)
        starts = powers * np.uint64(self._state)
        starts += sums * np.uint64(_BLOCK_SUM * self._inc & _MASK64)
        out = np.empty(flat.size)
        for start in range(0, flat.size, _BLOCK):
            stop = start + _BLOCK
            self._fill_normals_at(flat[start:stop], starts, out[start:stop])
        return out.reshape(t.shape)

    def _fill_normals_at(self, t: np.ndarray, starts: np.ndarray, out: np.ndarray) -> None:
        """Write the normals at the nonnegative int64 stream positions `t`
        into `out`, given the uint64 states `starts` that open each block."""
        pair = t >> 1
        fresh = np.empty(t.size, dtype=bool)
        fresh[0] = True
        np.not_equal(pair[1:], pair[:-1], out=fresh[1:])
        first = pair[fresh] << 2  # a pair's raw draw 0
        offset = first & (_BLOCK - 1)
        states = np.empty((4, first.size), dtype=np.uint64)
        np.multiply(_POW[offset], starts[first >> _BLOCK_BITS], out=states[0])
        states[0] += _GEO[offset] * np.uint64(self._inc)
        for k in range(1, 4):
            np.multiply(states[k - 1], np.uint64(_MULT), out=states[k])
            states[k] += np.uint64(self._inc)
        raw = np.empty(states.shape, dtype=np.uint32)
        _output(states, raw)
        u = np.empty((2, first.size))
        _unit(raw[0], raw[1], u[0])
        _unit(raw[2], raw[3], u[1])
        _box_muller(u[0], u[1])
        slot = np.cumsum(fresh)  # 1 + the pair's column in u
        slot += (t & 1) * first.size - 1
        np.take(u.reshape(-1), slot, out=out)

    def _fill_raw(self, out: np.ndarray) -> None:
        """Write the next ``out.size`` (1 to ``_BLOCK``) raw draws into the
        uint32 array `out` and advance the state past them."""
        c = out.size
        olds = _POW[:c] * np.uint64(self._state)
        olds += _GEO[:c] * np.uint64(self._inc)
        self._state = (int(olds[-1]) * _MULT + self._inc) & _MASK64
        _output(olds, out)

    def _fill_uniform(self, out: np.ndarray) -> None:
        """Write the next ``out.size`` (1 to ``_BLOCK // 2``) uniforms into
        the float64 array `out`, two raw draws each."""
        raw = np.empty(2 * out.size, dtype=np.uint32)
        self._fill_raw(raw)
        _unit(raw[0::2], raw[1::2], out)

    def permutation_prefix(self, n: int, count: int) -> np.ndarray:
        """First `count` elements of a Fisher-Yates shuffle of range(n).

        Step i swaps position i with j_i = i + r mod (n - i), r the step's
        first raw draw not below 2^32 mod (n - i), and keeps the value that
        lands at i.  The draws come in batches of `uint32_array` as long as
        the steps still to do, which never asks for more raw draws than the
        steps consume, so the generator ends in the same state; rejections
        leave later batches shorter.  The untouched tail of the virtual
        array is never materialized.
        """
        if not 0 <= count <= n:
            raise ValueError("need 0 <= count <= n")
        if count and n > 1 << 32:
            raise ValueError("n must be at most 2**32")
        bounds = np.uint64(n) - np.arange(count, dtype=np.uint64)
        thresholds = np.uint64(1 << 32) % bounds
        j = np.empty(count, dtype=np.int64)
        done = 0
        while done < count:
            raw = self.uint32_array(count - done).astype(np.uint64)
            step, accepted = _assign_draws(raw, thresholds[done:])
            i = done + step[accepted]
            j[i] = i + (raw[accepted] % bounds[i]).astype(np.int64)
            done += int(np.count_nonzero(accepted))
        return _resolve_swaps(j)


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError("count must be nonnegative")


# The pinned maps below are shared by the sequential and the random-access
# streams, so the two give the same bits by construction.

def _output(states: np.ndarray, out: np.ndarray) -> None:
    """Write the XSH-RR outputs of the uint64 `states` (overwritten) into the
    uint32 array `out`."""
    rot = (states >> np.uint64(59)).astype(np.uint32)
    states ^= states >> np.uint64(18)
    states >>= np.uint64(27)
    xorshifted = states.astype(np.uint32)
    np.bitwise_or(xorshifted >> rot, xorshifted << (-rot & np.uint32(31)), out=out)


def _unit(hi: np.ndarray, lo: np.ndarray, out: np.ndarray) -> None:
    """Write the uniforms of the raw draw pairs (hi, lo) into the float64
    array `out`."""
    bits = (hi.astype(np.uint64) << np.uint64(32)) | lo
    out[:] = (bits >> np.uint64(11)) * (2.0 ** -53)


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> None:
    """Overwrite the uniform pairs (u1, u2) with their normals
    (r cos(theta), r sin(theta))."""
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = (2.0 * math.pi) * u2
    u1[:] = r * np.cos(theta)
    u2[:] = r * np.sin(theta)


def _assign_draws(raw: np.ndarray, thresholds: np.ndarray):
    """Pair raw draws with the steps that consume them, as drawing step by
    step would: a draw below its step's threshold is rejected and the step
    takes the next one.  Returns each draw's step and whether it was accepted.

    A draw's step is its position minus the rejections before it.  Guessing
    those counts and recomputing them from the rejections they imply fixes
    at least one more draw per pass, and a fixed point is the sequential
    answer.  A draw's verdict changes between passes only if it falls
    between the thresholds of the steps it could belong to, which is rare,
    so two passes are the rule.
    """
    pos = np.arange(raw.size)
    skipped = np.zeros(raw.size, dtype=np.int64)
    while True:
        step = pos - skipped
        rejected = raw < thresholds[step]
        again = np.zeros_like(skipped)
        np.cumsum(rejected[:-1], out=again[1:])
        if np.array_equal(again, skipped):
            return step, ~rejected
        skipped = again


def _resolve_swaps(j: np.ndarray) -> np.ndarray:
    """Values picked by the swaps i <-> j[i], i = 0, 1, ..., of range(n).

    Step i reads positions i and j[i] (both >= i), picks the value at j[i]
    and writes the value at i there; position i is never read again.  So
    before step i a position holds what the last earlier step writing there
    wrote, else its own index.  Following last writers of position i back
    leads to a position nobody wrote before its own step, whose index is
    the value at i; pointer doubling finds these roots.
    """
    count = j.size
    steps = np.arange(count)
    order = np.argsort(j, kind="stable")  # by target, ties in step order
    target = j[order]
    # last writer of position i up to step i: the last step of group j == i.
    # It is step i itself only when j[i] == i, and then nothing ever reads
    # the value step i writes, so that root does not matter.
    end = np.searchsorted(target, steps, side="right")
    found = (end > 0) & (target[np.maximum(end - 1, 0)] == steps)
    root = steps.copy()
    root[found] = order[end[found] - 1]
    # doubled until root[i] is the value at position i before step i
    while True:
        up = root[root]
        if np.array_equal(up, root):
            break
        root = up
    # last earlier step with the same target, whose value sits at j[i]
    picked = j.copy()
    same = target[1:] == target[:-1]
    picked[order[1:][same]] = root[order[:-1][same]]
    return picked
