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
the same as ``count`` scalar steps.
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
_BLOCK = 1 << 14


def _jump_tables():
    """a^i and sum_{j<i} a^j (mod 2^64) for i < _BLOCK, a the multiplier."""
    powers = np.full(_BLOCK, _MULT, dtype=np.uint64)
    powers[0] = 1
    np.multiply.accumulate(powers, out=powers)
    geo = np.zeros(_BLOCK, dtype=np.uint64)
    np.cumsum(powers[:-1], out=geo[1:])
    powers.flags.writeable = geo.flags.writeable = False
    return powers, geo


_POW, _GEO = _jump_tables()


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
            r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
            theta = (2.0 * math.pi) * u[1::2]
            u[0::2] = r * np.cos(theta)
            u[1::2] = r * np.sin(theta)
        return out[:count]

    def _fill_raw(self, out: np.ndarray) -> None:
        """Write the next ``out.size`` (1 to ``_BLOCK``) raw draws into the
        uint32 array `out` and advance the state past them."""
        c = out.size
        olds = _POW[:c] * np.uint64(self._state)
        olds += _GEO[:c] * np.uint64(self._inc)
        self._state = (int(olds[-1]) * _MULT + self._inc) & _MASK64
        rot = (olds >> np.uint64(59)).astype(np.uint32)
        olds ^= olds >> np.uint64(18)
        olds >>= np.uint64(27)
        xorshifted = olds.astype(np.uint32)
        np.bitwise_or(xorshifted >> rot, xorshifted << (-rot & np.uint32(31)), out=out)

    def _fill_uniform(self, out: np.ndarray) -> None:
        """Write the next ``out.size`` (1 to ``_BLOCK // 2``) uniforms into
        the float64 array `out`, two raw draws each."""
        raw = np.empty(2 * out.size, dtype=np.uint32)
        self._fill_raw(raw)
        raw = raw.astype(np.uint64)
        bits = (raw[0::2] << np.uint64(32)) | raw[1::2]
        out[:] = (bits >> np.uint64(11)) * (2.0 ** -53)

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
