"""Exact solvers for the convex inner subproblems of the alternating loop.

With one factor fixed the objective is a convex, C^1, piecewise-quadratic
function of the other factor.  It is solved by sign-set iteration
(reweighted least squares with the two-valued asymmetric weights): fix the
weights implied by the current residual signs, solve the weighted ridge
normal equations, recompute signs, repeat.  A round solves, then halves
the step of each column whose objective rose until it descends (a strict
descent direction, so a short enough step always does); a halved column
stays in the loop.  Once a full step leaves a column's weights unchanged it
satisfies its own signs, has zero gradient and is the global minimizer.

One driver serves both observation kinds.  It works on blocks of
independent subproblems: per block a slot-major (rows, d, width) array of
design rows, gathered once per solve, with zero design rows at padding
slots.  Normal matrices, right-hand sides, residuals and per-row objectives
are each one batched matmul or reduction per block.  For entry
observations the problem decomposes into independent k-dim subproblems per
row of the unknown factor, and the blocks are the observation set's cached
column layout (:attr:`~emfkit.core.EntryObservations.column_buckets`) with
the fixed factor's rows as design.  A bucket's block is one take along
the columns of the fixed factor's transpose, with a zero column appended
that padding slots (row -1) wrap to, into a k-major buffer: each factor
column is one contiguous (columns, width) plane, so the weighting and the
products run along contiguous slots.  General linear measurements
couple all rows: they form one (1, n*k, p) block, a view of the
measurements' design rows G, whose single row is vec(Y), with one slot per
measurement.  The weights take two values, so its normal matrix is
min(omega, 1 - omega) G G^T, with G G^T formed once per half-step, plus
|2 omega - 1| times the product over the slots of the larger weight.  Its
normal equations are solved directly: with the matrix's Cholesky factor
once that factor has no tiny pivot and so shows the matrix nonsingular,
else for the min-norm solution by lstsq.  At ridge = 0 with fewer
measurements than n*k the normal matrix is singular and the half-step has
a whole set of minimizers, and the min-norm solve picks one by the weights
of the residuals that are zero or rounding noise; such a fit is not
unique.  A ridge makes every half-step's minimizer unique.

Rows of the unknown are independent subproblems, so each converges on its
own: a row leaves the round loop once its signs certify it, and every
later round would reproduce it bit for bit.
Each block holds, for one half-step and compacted in place as rows leave,
the design rows, values, weights, normal matrix N and right-hand side q of
each row still in the loop.  (N, q) is at the row's current weights:
assembled at the opening and, after a round, re-assembled for the rows
that stay.  So the start gradient and the stall check read the gradient
2 (N y - q), with no pass over the design; a row that leaves is certified
by its signs, and its gradient is zero.  The half-step ends when no row is
left; the general block is one row.  Rounds and solutions are exactly
those of re-solving every row in every round until all weights hold.

Blocks write disjoint rows, so a half-step runs in steps, each a task
per live block: the opening (design gather, weights, objective and normal
equations at the warm start) is one step and each round another.  In a
step the calling thread takes blocks beside threads - 1 of a pool's, one
thread per core this process may run on (:data:`ROUND_THREADS` caps that)
and at most one per live block, each taking the next block when free.
numpy releases the interpreter lock in the heavy calls.  Only the
assembly's weighted copy of the design, as large as the block, is made
:data:`_WEIGHTED_NUMBERS` numbers at a time.  The calling thread
allocates the arrays and, between steps, sums the objective and reads
gradient norms, each by numpy's own summation, not BLAS, so that they do
not depend on the BLAS thread count; the sign pattern is computed on its
first read.  A block's arithmetic is the same on any thread, so results
are bit-identical to running the blocks one after another.  A step with
one live block, such as the general block, or with few live design
numbers runs inline, and the pool lives only as long as one call.

An entry half-step holds OpenBLAS at one thread (:func:`one_blas_thread`),
as an entry fit and svd_init do throughout; the hold does two jobs.  The
pool is its only parallelism: after a call that OpenBLAS splits across
threads, such as svd_init's QR, its idle workers spin for a while and take
a core from the pool.  And an entry half-step's bytes do not depend on the
BLAS thread count: OpenBLAS splits large enough calls across its threads
and rounds by their count (unheld, a rank-50 fit of a 1000-by-1000 set
differed at one and two threads).  The general block, which runs inline,
keeps the BLAS threads for its Gram product.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .core import EntryObservations, FactorPair, ObservationSet, as_matrix
from .loss import _check_omega, asymmetric_weights

_DESCENT_SLACK = 1e-13
_MAX_HALVINGS = 60
# Smallest Cholesky pivot, relative to the largest, at which the general
# block's normal matrix counts as nonsingular.  Singular ridge-0 matrices
# factored with ratios up to about 1e-6, and well-posed ones at 1e-4 and up
_PIVOT_RATIO = 1e-5

# Most threads a half-step runs bucket tasks on; None means one per core this
# process may run on.  CLI grid workers set 1: the grid already uses the cores.
ROUND_THREADS = None
# An opening or round over fewer live design numbers than this (2 MiB) runs on
# the calling thread: there the hand-offs between threads cost more than
# the other cores save, and numpy holds the interpreter lock on small arrays
_THREADED_NUMBERS = 1 << 18
# Most numbers the assembly's weighted copy of a design block holds (512 KiB)
_WEIGHTED_NUMBERS = 1 << 16
# one_blas_thread's holders, and the OpenBLAS thread counts the first saved
_HOLD_LOCK = threading.Lock()
_held = {"depth": 0, "saved": []}


class SingularDesignError(RuntimeError):
    """A column's weighted normal matrix is singular and ridge is zero; the
    message names the column."""


@dataclass(frozen=True)
class SubproblemResult:
    """Solution of one inner subproblem plus its optimality certificate.

    inner_objective_trace holds the objective before the first and after
    every sign-set round; start_gradient_norm is the norm of the objective's
    gradient at the warm start; final_gradient_norm is that over the columns
    still iterating, so 0.0 once every column is certified by its signs.
    """

    solution: np.ndarray
    inner_iterations: int
    start_gradient_norm: float
    final_gradient_norm: float
    converged: bool
    inner_objective_trace: np.ndarray
    # what sign_pattern reads: the solve's own copy of the fixed factor
    _x_fixed: np.ndarray
    _obs: ObservationSet

    @cached_property
    def sign_pattern(self) -> np.ndarray:
        """Marks nonnegative residuals at the solution, in observation order;
        computed on first read, then kept."""
        return self._obs.values - self._obs.apply(FactorPair(self._x_fixed, self.solution)) >= 0


def solve_y(
    x_fixed,
    obs: ObservationSet,
    omega: float,
    ridge: float = 0.0,
    warm_start=None,
    *,
    max_inner: int = 100,
    tol_gradient: float = 1e-8,
) -> SubproblemResult:
    """Globally minimize the objective over the right factor, left factor fixed.

    The left-factor half-step is ``solve_y(y_fixed, obs.transposed, ...)``.
    A start gradient below tol_gradient in norm returns the warm start, with no round.
    """
    x = as_matrix(x_fixed, "fixed factor")
    _check_omega(omega)
    if not 0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    if obs.shape[0] != x.shape[0]:
        raise ValueError(
            f"fixed factor has {x.shape[0]} rows, observations expect {obs.shape[0]}"
        )
    # in Python floats, where an overflow gives inf without a warning
    ridge_x = float(ridge) * float((x * x).sum()) if ridge else 0.0
    if not np.isfinite(ridge_x):
        raise ValueError(f"ridge {ridge!r} times the fixed factor's squared norm is not finite")
    k = x.shape[1]
    if warm_start is None:
        y = np.zeros((obs.shape[1], k))
    else:
        # solve_y's own copy: the rounds update it in place
        y = as_matrix(warm_start, "warm_start").copy()
        if y.shape != (obs.shape[1], k):
            raise ValueError(f"warm_start shape {y.shape}, expected {(obs.shape[1], k)}")
    entry = isinstance(obs, EntryObservations)
    if entry:
        if ridge == 0.0:
            short = np.nonzero(obs.col_counts < k)[0]
            if short.size:
                raise SingularDesignError(
                    f"column {short[0]} has {obs.col_counts[short[0]]} observations, "
                    f"fewer than rank {k}, and ridge is zero"
                )
        buckets = obs.column_buckets
        # per half-step: the fixed factor's columns, each with a zero
        # appended, which padding slots (row -1) gather
        xt = np.zeros((k, x.shape[0] + 1))
        xt[:, :-1] = x.T
        # design blocks k-major in memory, gathered by the bucket tasks
        blocks = [_Block(b.cols, np.empty((k,) + b.rows.shape).transpose(1, 0, 2),
                         b.values.copy()) for b in buckets]
    else:
        # one block: row 0 of y is vec(Y), and measurement i is slot i, with
        # design row g_i = vec(A_i^T x)
        col = np.zeros(1, dtype=np.int64)
        blocks = [_Block(col, obs.design(x).reshape(obs.size, -1).T[None], obs.values[None])]
        y = y.reshape(1, -1)
        # G G^T of the design rows G: every assembly of the half-step starts from it
        gram = blocks[0].design[0] @ blocks[0].design[0].T
    solve = _solve_entry if entry else _solve_general
    n, d = y.shape
    # per column: its objective, and its gradient 2 (N y - q) at y (0 once it leaves)
    obj, g = np.empty(n), np.empty((n, d))

    def open_block(i):
        # one bucket's opening: its design, and all else at the warm start
        s = blocks[i]
        if entry:
            xt.take(buckets[i].rows, axis=1, out=s.design.transpose(1, 0, 2), mode="wrap")
        s.w[:], obj[s.cols] = _evaluate((s.design, s.values), y[s.cols], omega, ridge)
        assemble(s)

    def assemble(s):
        # the live columns' normal equations at their weights, and gradients
        n, c = s.n, s.cols[:s.n]
        if entry:
            _assemble(s.design[:n], s.w[:n], s.values[:n], ridge, s.normal[:n], s.rhs[:n])
        elif n:
            _assemble_general(s.design[0], gram, s.w[0], s.values[0], omega, ridge,
                              s.normal[0], s.rhs[0])
        g[c] = 2.0 * (np.matmul(s.normal[:n], y[c][:, :, None]) - s.rhs[:n])[:, :, 0]

    def round_block(i):
        # one bucket's share of a round, on its live columns; it reads and
        # writes only its own columns, so buckets may run on different threads
        s = blocks[i]
        n, c = s.n, s.cols[:s.n]
        y[c], w, obj[c], halved = _descend(
            (s.design[:n], s.values[:n]), y[c], solve(s.normal[:n], s.rhs[:n], c),
            obj[c], s.w[:n], omega, ridge)
        keep = halved | (w != s.w[:n]).any(axis=1)
        s.w[:n] = w
        # a column whose weights held through an undamped step satisfies
        # its own signs, so it is its own global minimizer, with gradient
        # zero, and every later round would reproduce it bit for bit; at
        # omega = 0.5 every column leaves after the first round whatever the
        # signs do.  The others' normal equations are re-assembled
        g[c[~keep]] = 0.0
        s.compact(keep)
        assemble(s)

    threads = min(ROUND_THREADS or usable_cores(), len(blocks))
    # this thread solves buckets too, beside threads - 1 of the pool's; the
    # pool starts a thread only when a step hands it a bucket.  An entry
    # half-step holds OpenBLAS at one thread, as fit does (nested holds share one)
    hold = one_blas_thread() if entry else nullcontext()
    with hold, ThreadPoolExecutor(max(threads - 1, 1)) as pool:

        def run(step, ids):
            # inline for one live bucket or few live design numbers
            numbers = d * sum(blocks[i].n * blocks[i].values.shape[1] for i in ids)
            _spread(pool, min(threads, len(ids)) if numbers >= _THREADED_NUMBERS else 1, step, ids)

        run(open_block, range(len(blocks)))
        trace = [float(obj.sum()) + ridge_x]
        grad0 = _norm(g)
        # at ridge 0 an overflow is the design's, which the rounds' solve names
        if ridge and not (np.isfinite(trace[0]) and np.isfinite(grad0)):
            raise ValueError(f"ridge {ridge!r}: the opening objective {trace[0]!r} or start "
                             f"gradient norm {grad0!r} is not finite")
        converged, iterations = grad0 < tol_gradient, 0  # fit's gradient stop: no round
        while not converged and iterations < max_inner:
            iterations += 1
            run(round_block, [i for i, s in enumerate(blocks) if s.n])
            trace.append(float(obj.sum()) + ridge_x)
            # signs of near-zero residuals can flap on rounding noise without
            # the point moving; once the objective stalls, certify by the gradient
            stalled = (trace[-2] - trace[-1]) <= 1e-13 * max(trace[-2], 1e-300)
            converged = not any(s.n for s in blocks) or (
                stalled and _norm(g) <= tol_gradient * (1.0 + grad0))

    return SubproblemResult(
        solution=y.reshape(obs.shape[1], k),
        inner_iterations=iterations,
        start_gradient_norm=grad0,
        final_gradient_norm=_norm(g),
        converged=converged,
        inner_objective_trace=np.asarray(trace),
        _x_fixed=x.copy(),
        _obs=obs,
    )


class _Block:
    """A block's arrays for one half-step: the ids, (columns, d, width)
    design rows, values, weights and normal equations of the n live columns
    lead their arrays."""

    def __init__(self, cols, design, values):
        self.n, d = design.shape[:2]
        self.cols, self.design, self.values = cols.copy(), design, values
        self.w = np.empty(values.shape)
        self.normal, self.rhs = np.empty((self.n, d, d)), np.empty((self.n, d, 1))

    def compact(self, keep):
        """Keep the live columns that keep marks: the last ones fill the
        places of those that left."""
        m = int(keep.sum())
        holes, movers = np.flatnonzero(~keep[:m]), m + np.flatnonzero(keep[m:])
        for a in (self.cols, self.values, self.w, self.design):
            a[holes] = a[movers]
        self.n = m


def _spread(pool, threads, step, ids):
    """Call step(i) for every i in ids, on this thread and on threads - 1 of
    the pool's, each taking the next id when it is free.  A failure raised is
    that of the first failing id in ids, the one a serial loop meets."""
    queue, lock = iter(ids), threading.Lock()
    failed = {}

    def drain():
        while True:
            with lock:
                i = next(queue, None)
            if i is None:
                return
            try:
                step(i)
            except Exception as exc:  # raised below, once every id has run
                failed[i] = exc

    helpers = [pool.submit(drain) for _ in range(threads - 1)]
    drain()
    for helper in helpers:
        helper.result()
    if failed:
        raise failed[min(failed)]


def usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@cache
def openblas_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS library loaded in
    this process, looked up once: none for another BLAS, or without /proc.

    Numpy 2 wheels export scipy_openblas_*64_, numpy 1.26 wheels
    openblas_*64_, and distribution builds the bare names.
    """
    try:
        with open("/proc/self/maps") as maps:
            # a mapped file's path is the line's sixth field
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps
                            if "openblas" in line.lower()})
    except OSError:  # no /proc on this platform
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, os.RTLD_NOLOAD)  # only one already loaded
        except OSError:
            continue
        for name in (f"{prefix}openblas_{{}}_num_threads{suffix}"
                     for prefix in ("", "scipy_") for suffix in ("", "64_", "_64")):
            get, set_ = (getattr(lib, name.format(kind), None) for kind in ("get", "set"))
            if get and set_:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextmanager
def one_blas_thread():
    """Hold every OpenBLAS library loaded in this process at one thread.

    An entry fit, svd_init or half-step runs under it: idle OpenBLAS
    workers would spin on the pool's cores, and a call OpenBLAS splits
    across threads rounds by their count, so unheld bytes can vary with it.
    Nested and concurrent holders share one hold: the first saves the
    thread counts and the last restores them.  With no OpenBLAS found it
    does nothing.
    """
    with _HOLD_LOCK:
        if not _held["depth"]:
            _held["saved"] = [get() for get, _ in openblas_controls()]
            for _, set_ in openblas_controls():
                set_(1)
        _held["depth"] += 1
    try:
        yield
    finally:
        with _HOLD_LOCK:
            _held["depth"] -= 1
            if not _held["depth"]:
                for (_, set_), count in zip(openblas_controls(), _held["saved"]):
                    set_(count)


def _assemble(a, w, values, ridge, normal, rhs):
    """Write the weighted ridge normal equations of design block a's columns,
    with weights w, into normal and rhs: one system per column."""
    cols, d, width = a.shape
    # weight a few columns at a time: the weighted copy stays in cache, and
    # the bucket threads' heaps stay small
    step = max(1, _WEIGHTED_NUMBERS // max(d * width, 1))  # width 0: empty columns
    for lo in range(0, cols, step):
        xw = a[lo:lo + step] * w[lo:lo + step, None, :]
        np.matmul(xw, a[lo:lo + step].transpose(0, 2, 1), out=normal[lo:lo + step])
        np.matmul(xw, values[lo:lo + step, :, None], out=rhs[lo:lo + step])
    normal.reshape(cols, d * d)[:, :: d + 1] += ridge  # its diagonals


def _assemble_general(a, gram, w, values, omega, ridge, normal, rhs):
    """Write the general block's weighted ridge normal equations, with design
    rows a (d, slots), gram = a a^T and weights w, into normal and rhs:
    N = min(omega, 1 - omega) a a^T + |2 omega - 1| a_H a_H^T + ridge I,
    H the slots weighted max(omega, 1 - omega), a sum of two PSD terms."""
    low, high = sorted((omega, 1.0 - omega))
    np.multiply(gram, low, out=normal)
    if high > low:
        heavy = a.T[w == high]  # (|H|, d) rows, copied contiguous
        normal += abs(2.0 * omega - 1.0) * (heavy.T @ heavy)
    normal.reshape(-1)[:: normal.shape[0] + 1] += ridge  # its diagonal
    np.matmul(a, w * values, out=rhs[:, 0])


def _solve_entry(normal, rhs, cols):
    """Solve the normal equations of the entry columns cols: one row per column."""
    try:
        y = np.linalg.solve(normal, rhs)[:, :, 0]
    except np.linalg.LinAlgError as exc:
        # only now find the lowest such column: the batched solve itself costs
        # nothing more.  slogdet's LU meets the zero pivot that solve's did
        raise SingularDesignError(
            f"column {cols[np.linalg.slogdet(normal)[0] == 0].min()}: its weighted "
            "normal matrix is singular and ridge is zero"
        ) from exc
    if not np.isfinite(y).all():
        raise SingularDesignError(
            f"column {cols[~np.isfinite(y).all(axis=1)].min()}: its weighted normal "
            "matrix is numerically singular or overflows"
        )
    return y


def _solve_general(normal, rhs, cols):
    """The min-norm solution of the general block's normal equations, of its
    one row cols: at ridge 0 fewer measurements than n*k leave them singular.
    A Cholesky factor whose smallest pivot is above _PIVOT_RATIO times its
    largest shows them nonsingular and gives their one solution, else lstsq."""
    n0, q0 = normal[0], rhs[0, :, 0]
    try:
        low = np.linalg.cholesky(n0)
    except np.linalg.LinAlgError:  # not numerically positive definite
        low = np.zeros((1, 1))
    pivots = low.diagonal()
    if pivots.min() > _PIVOT_RATIO * pivots.max():
        # imported here: scipy.linalg adds about 8 MB resident to a
        # process, and only general measurements use it
        from scipy.linalg import cho_solve

        return cho_solve((low, True), q0, check_finite=False)[None]
    return np.linalg.lstsq(n0, q0, rcond=None)[0][None]


def _norm(a):
    """Euclidean norm of a, by numpy's own pairwise sum.  np.linalg.norm goes
    through BLAS ddot, which splits a long sum across threads and rounds it
    by their count.  Only where the squares overflow is a scaled by its
    largest magnitude first, so every norm in the float range is unchanged."""
    with np.errstate(over="ignore"):
        norm = float(np.sqrt((a * a).sum()))
    if norm == np.inf and np.isfinite(a).all():
        scale = float(np.abs(a).max())
        norm = scale * float(np.sqrt(((a / scale) ** 2).sum()))
    return norm


def _evaluate(part, y, omega, ridge):
    """Weights and objectives at y, its rows, of the columns whose (design
    rows, values) part holds.

    A padding slot's residual is exactly zero, so it adds nothing.
    """
    design, values = part
    r = values - np.matmul(y[:, None, :], design)[:, 0, :]
    w = asymmetric_weights(r, omega)
    obj = (w * r * r).sum(axis=1)
    obj += ridge * np.einsum("ij,ij->i", y, y)
    return w, obj


def _descend(part, y_old, y_new, obj_old, w_old, omega, ridge):
    """Step the columns whose (design rows, values) part holds from y_old to
    their solved rows y_new, in place; halve the step of each column whose
    objective rose above obj_old until it descends, evaluating only those
    still rising.  One that never descends gets back y_old, w_old, obj_old.
    Returns the rows, weights, objectives and the mask of halved columns."""
    w, obj = _evaluate(part, y_new, omega, ridge)
    bound = obj_old * (1.0 + _DESCENT_SLACK) + 1e-300
    halved = obj > bound
    rising, t = np.flatnonzero(halved), 1.0
    while rising.size and t > 0.5**_MAX_HALVINGS:
        t *= 0.5
        trial = y_old[rising] + t * (y_new[rising] - y_old[rising])
        w_t, obj_t = _evaluate(tuple(a[rising] for a in part), trial, omega, ridge)
        rose = obj_t > bound[rising]
        done = rising[~rose]  # these leave rising: their y_new is read no more
        y_new[done], w[done], obj[done] = trial[~rose], w_t[~rose], obj_t[~rose]
        rising = rising[rose]
    y_new[rising], w[rising], obj[rising] = y_old[rising], w_old[rising], obj_old[rising]
    return y_new, w, obj, halved
