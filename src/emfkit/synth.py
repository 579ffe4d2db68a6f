"""Deterministic generators for synthetic experiments and property tests.

Every generator is a pure function of its seed via :class:`emfkit.rng.Pcg32`
streams; the stream ids below keep factors, noise, masks and measurement
draws independent of each other for the same experiment seed.  Products
are einsum's sums, not BLAS calls, so instances are the same bytes at any
BLAS thread count.  A completion instance draws noise at its sampled
entries only; its values are those of the whole noise matrix at those
entries, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EntryObservations, FactorPair, GeneralObservations
from .rng import Pcg32

FACTOR_STREAM = 1
NOISE_STREAM = 2
MASK_STREAM = 3
SPLIT_STREAM = 4
MEASUREMENT_STREAM = 5

_MEASUREMENT_CAP = 50_000_000


@dataclass(frozen=True)
class SyntheticInstance:
    """A completion experiment: low-rank truth, skewed noise, sampled entries.

    observed and heldout partition the index grid; observed values are
    truth plus noise while evaluation compares against truth.
    """

    truth: np.ndarray
    observed: EntryObservations
    heldout: np.ndarray  # (q, 2) int indices


def gen_low_rank(m: int, n: int, k: int, seed: int) -> FactorPair:
    """Factors with i.i.d. uniform [0, 1) entries; product has rank k a.s."""
    if m < 1 or n < 1 or not 1 <= k <= min(m, n):
        raise ValueError(f"invalid dimensions m={m}, n={n}, k={k}")
    g = Pcg32(seed, FACTOR_STREAM)
    x = g.uniform(m * k).reshape(m, k)
    y = g.uniform(n * k).reshape(n, k)
    return FactorPair(x, y)


def chi_square_noise(m: int, n: int, dof: int, scale: float, seed: int) -> np.ndarray:
    """Entries scale * chi^2_dof, i.i.d. (sum of dof squared standard normals).

    Entry (i, j) sums the squares of normals dof*(i*n + j) to
    dof*(i*n + j) + dof - 1 of the noise stream.
    """
    _check_noise(m, n, dof, scale)
    z = Pcg32(seed, NOISE_STREAM).normal(m * n * dof).reshape(m * n, dof)
    return _chi_square(z, scale).reshape(m, n)


def _check_noise(m: int, n: int, dof: int, scale: float) -> None:
    if m < 1 or n < 1:
        raise ValueError(f"invalid dimensions m={m}, n={n}")
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    if scale < 0:
        raise ValueError(f"scale must be >= 0, got {scale}")


def _chi_square(z: np.ndarray, scale: float) -> np.ndarray:
    """scale times the sums of squares of the rows of z."""
    return scale * np.einsum("ij,ij->i", z, z)


def sample_mask(m: int, n: int, rate: float, seed: int) -> np.ndarray:
    """floor(rate*m*n) distinct (i, j) pairs, uniform without replacement."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"sampling rate must be in (0, 1], got {rate}")
    total = m * n
    count = int(rate * total)
    if count < 1:
        raise ValueError(f"rate {rate} selects no entries of a {m}x{n} matrix")
    flat = Pcg32(seed, MASK_STREAM).permutation_prefix(total, count)
    return np.column_stack([flat // n, flat % n])


def gaussian_measurements(m: int, n: int, p: int, seed: int) -> np.ndarray:
    """p dense m-by-n matrices with i.i.d. standard normal entries, as one
    (p, m, n) array.

    Values are attached later via :func:`apply_measurements`; the raw array
    keeps the measurement ensemble reusable across truth matrices.  The
    normals are drawn block by block into the result, so a draw at the
    ``_MEASUREMENT_CAP`` element cap (400 MB of output) needs little memory
    beyond the result itself.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p * m * n > _MEASUREMENT_CAP:
        raise ValueError(f"p*m*n = {p * m * n} exceeds the cap of {_MEASUREMENT_CAP}")
    g = Pcg32(seed, MEASUREMENT_STREAM)
    return g.normal(p * m * n).reshape(p, m, n)


def apply_measurements(measurements, truth, noise=None) -> GeneralObservations:
    """Pair measurement matrices with a truth matrix: b_i = <A_i, truth> (+ noise)."""
    truth = np.asarray(truth, dtype=np.float64)
    measurements = np.asarray(measurements, dtype=np.float64)
    values = np.einsum("pij,ij->p", measurements, truth)
    if noise is not None:
        values = values + np.asarray(noise, dtype=np.float64)
    return GeneralObservations(truth.shape, measurements, values)


def make_completion_instance(
    m: int, n: int, k: int, noise_scale: float, dof: int, rate: float, seed: int
) -> SyntheticInstance:
    """The synthetic recipe: uniform low-rank truth plus scaled chi-square noise,
    observed on a uniform random mask.

    The observed values are truth plus ``chi_square_noise(m, n, dof,
    noise_scale, seed)`` at the mask, bit for bit; only the sampled
    entries' normals are drawn, by random access into the noise stream.
    """
    factors = gen_low_rank(m, n, k, seed)
    truth = np.einsum("ik,jk->ij", factors.x, factors.y)
    _check_noise(m, n, dof, noise_scale)
    mask = sample_mask(m, n, rate, seed)
    rows, cols = mask[:, 0], mask[:, 1]
    flat = rows * n + cols
    z = Pcg32(seed, NOISE_STREAM).normal_at(dof * flat[:, None] + np.arange(dof))
    noise = _chi_square(z, noise_scale)
    observed = EntryObservations((m, n), rows, cols, truth[rows, cols] + noise)
    taken = np.zeros(m * n, dtype=bool)
    taken[flat] = True
    rest = np.nonzero(~taken)[0]
    heldout = np.column_stack([rest // n, rest % n])
    return SyntheticInstance(truth=truth, observed=observed, heldout=heldout)
