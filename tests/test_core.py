import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emfkit
import emfkit.core
import emfkit.io
from emfkit.core import (
    DuplicateEntryError,
    EmfConfig,
    EntryObservations,
    FactorPair,
    GeneralObservations,
    SolveReport,
    StopReason,
)
from emfkit.subsolver import solve_y
from oracle import design, objective


def test_factor_pair_validation():
    with pytest.raises(ValueError):
        FactorPair(np.ones((2, 2)), np.ones((3, 3)))
    with pytest.raises(ValueError):
        FactorPair(np.array([[np.nan]]), np.ones((1, 1)))


@pytest.mark.parametrize("cls", [EntryObservations, GeneralObservations])
def test_observation_sets_refuse_non_integer_shapes(cls):
    def make(shape):
        if cls is EntryObservations:
            return cls(shape, [0], [0], [1.0])
        return cls(shape, np.ones((1, 2, 2)), [1.0])

    for shape in ((2.7, 2), (2, 2.5), ("2", 2)):
        with pytest.raises(ValueError, match="shape must be two integers"):
            make(shape)
    obs = make((np.int64(2), np.int32(2)))
    assert obs.shape == (2, 2) and all(type(d) is int for d in obs.shape)


def test_entry_observations_rejects_duplicates():
    with pytest.raises(DuplicateEntryError, match=r"\(1, 2\)"):
        EntryObservations((3, 3), [0, 1, 1], [0, 2, 2], [1.0, 2.0, 3.0])


def test_entry_observations_take_sorted_entries_without_unique(monkeypatch):
    # np.nonzero order is strictly increasing, so no duplicate search runs
    def no_unique(*args, **kwargs):
        raise AssertionError("np.unique called on strictly increasing entries")

    monkeypatch.setattr(np, "unique", no_unique)
    rows, cols = np.nonzero(np.arange(12).reshape(3, 4) % 3 != 1)
    obs = EntryObservations((3, 4), rows, cols, np.ones(rows.size))
    assert obs.size == 8


def test_entry_observations_take_unsorted_distinct_entries():
    obs = EntryObservations((3, 3), [2, 0, 1, 0], [1, 2, 0, 0], [1.0, 2.0, 3.0, 4.0])
    assert obs.size == 4 and obs.col_counts.tolist() == [2, 1, 1]


def test_entry_observations_reject_unsorted_duplicates():
    # the duplicate is not adjacent, and the message names the lowest repeat
    with pytest.raises(DuplicateEntryError,
                       match=r"^duplicate observation of entry \(0, 2\)$"):
        EntryObservations((3, 3), [2, 0, 1, 1, 0, 2], [1, 2, 0, 2, 2, 1],
                          [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def test_entry_observations_rejects_bad_indices_and_values():
    with pytest.raises(ValueError):
        EntryObservations((2, 2), [2], [0], [1.0])
    with pytest.raises(ValueError):
        EntryObservations((2, 2), [0], [-1], [1.0])
    with pytest.raises(ValueError):
        EntryObservations((2, 2), [0], [0], [np.inf])
    with pytest.raises(ValueError):
        EntryObservations((2, 2), [], [], [])
    # float and bool indices are refused, not truncated to (0, 1) and (2, 0)
    with pytest.raises(ValueError, match="^row_idx must be integers, got dtype float64$"):
        EntryObservations((3, 3), [0.5, 2.9], [1.7, 0], [1.0, 2.0])
    with pytest.raises(ValueError, match="^col_idx must be integers, got dtype float64$"):
        EntryObservations((3, 3), [0, 2], [1.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="^row_idx must be integers, got dtype bool$"):
        EntryObservations((3, 3), [False, True], [1, 0], [1.0, 2.0])
    obs = EntryObservations((3, 3), np.array([0, 2], np.uint8), np.array([1, 0], np.int32),
                            [1.0, 2.0])
    assert obs.row_idx.dtype == obs.col_idx.dtype == np.int64
    assert obs.row_idx.tolist() == [0, 2] and obs.col_idx.tolist() == [1, 0]


def test_entry_observations_grouping_views():
    obs = EntryObservations((3, 3), [0, 2, 2], [1, 0, 1], [5.0, 6.0, 7.0])
    v = np.array([1.0, 10.0, 100.0])
    # column sums of the adjoint sum v over each column's observations
    assert obs.adjoint(v).sum(axis=0).tolist() == [[10.0, 101.0, 0.0]]
    assert obs.transposed.col_counts.tolist() == [1, 0, 2]
    assert obs.col_counts.tolist() == [1, 2, 0]
    # columns by count: the empty column 2 alone, then columns 0 and 1 at
    # column 1's width 2, column 0's second slot padding
    empty, pair = obs.column_buckets
    assert empty.cols.tolist() == [2] and empty.rows.shape == (1, 0)
    assert pair.cols.tolist() == [0, 1] and pair.rows.tolist() == [[2, -1], [0, 2]]
    assert pair.values.tolist() == [[6.0, 0.0], [5.0, 7.0]]


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
       cap=st.sampled_from([1, 2, 3, 256]), empty_share=st.sampled_from([0.0, 0.3]))
@settings(max_examples=80)
def test_property_column_buckets_follow_the_count_order(seed, n, cap, empty_share):
    # power-law counts, some columns empty, observations in shuffled order
    rng = np.random.RandomState(seed)
    counts = (rng.randint(1, 200) / rng.randint(1, n + 1, size=n) ** 1.3).astype(int)
    counts[rng.uniform(size=n) < empty_share] = 0
    counts[rng.randint(n)] += 1
    m = counts.max() + rng.randint(0, 4)
    rows = np.concatenate([rng.choice(m, size=d, replace=False) for d in counts])
    perm = rng.permutation(rows.size)
    cols = np.repeat(np.arange(n), counts)[perm]
    obs = EntryObservations((m, n), rows[perm], cols, rng.randn(rows.size))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(emfkit.core, "BUCKET_COLUMNS", cap)
        buckets = obs.column_buckets
    # every column once, by (count, index)
    laid_out = np.concatenate([b.cols for b in buckets])
    assert laid_out.tolist() == sorted(range(n), key=lambda j: (counts[j], j))
    for i, b in enumerate(buckets):
        c = counts[b.cols]
        assert 1 <= b.cols.size <= cap
        assert b.rows.shape == b.values.shape == (b.cols.size, c.max())
        assert c.max() == c[-1] <= 2 * c[0]
        # a run ends only at the column cap or at a count above twice its first
        if i + 1 < len(buckets):
            assert b.cols.size == cap or counts[buckets[i + 1].cols[0]] > 2 * c[0]
        for j, d, r, v in zip(b.cols, c, b.rows, b.values):
            mine = obs.col_idx == j
            assert r[:d].tolist() == obs.row_idx[mine].tolist()
            assert v[:d].tolist() == obs.values[mine].tolist()
            assert (r[d:] == -1).all() and (v[d:] == 0.0).all()
    assert sum(b.rows.size for b in buckets) <= 2 * obs.size


def test_entry_observations_transpose_roundtrip():
    obs = EntryObservations((3, 2), [0, 2], [1, 0], [5.0, 6.0])
    t = obs.transposed
    assert t.shape == (2, 3)
    assert t.row_idx.tolist() == obs.col_idx.tolist()
    assert t.transposed is obs
    dense = obs.adjoint(obs.values).toarray()
    assert dense[0, 1] == 5.0 and dense[2, 0] == 6.0 and dense.sum() == 11.0


def test_general_observations_validation():
    a = np.ones((2, 2))
    with pytest.raises(ValueError):
        GeneralObservations((2, 2), [a], [1.0, 2.0])
    with pytest.raises(ValueError):
        GeneralObservations((2, 2), [np.ones((2, 3))], [1.0])
    with pytest.raises(ValueError):
        GeneralObservations((2, 2), [a], [np.nan])
    g = GeneralObservations((2, 2), [a, 2 * a], [1.0, 2.0])
    assert np.allclose(g.adjoint(g.values), a + 2 * (2 * a))
    assert g.transposed.shape == (2, 2)


def test_general_observations_keep_one_stack():
    rng = np.random.RandomState(3)
    stack = rng.randn(4, 2, 3)
    g = GeneralObservations((2, 3), stack, rng.randn(4))
    assert g.measurements is stack
    t = g.transposed
    assert t.shape == (3, 2) and t.transposed is g
    assert np.shares_memory(t.measurements, g.measurements)
    assert np.array_equal(t.measurements[1], stack[1].T)
    assert np.allclose(t.adjoint(t.values), g.adjoint(g.values).T, rtol=0, atol=1e-14)
    # a sequence of matrices is stacked once
    listed = GeneralObservations((2, 3), list(stack), g.values)
    assert listed.measurements.shape == (4, 2, 3)
    assert np.array_equal(listed.measurements, stack)


def test_general_observations_name_the_non_finite_measurement():
    stack = np.ones((3, 2, 2))
    stack[2, 1, 0] = np.inf
    with pytest.raises(ValueError, match="measurement 2 contains non-finite"):
        GeneralObservations((2, 2), stack, [1.0, 2.0, 3.0])


def _entry_set(rng):
    m, n = 7, 6
    flat = rng.permutation(m * n)[:20]
    return EntryObservations((m, n), flat // n, flat % n, rng.randn(20))


def _gaussian_set(rng):
    return GeneralObservations((7, 6), rng.randn(15, 7, 6), rng.randn(15))


@pytest.mark.parametrize("make", [_entry_set, _gaussian_set])
@pytest.mark.parametrize("view", [False, True], ids=["direct", "transposed"])
def test_observation_operator_adjoint_and_design(make, view):
    rng = np.random.RandomState(5)
    obs = make(rng)
    obs = obs.transposed if view else obs
    (m, n), k = obs.shape, 3
    f = FactorPair(rng.randn(m, k), rng.randn(n, k))
    c = rng.randn(obs.size)
    b = obs.apply(f)
    assert b.shape == (obs.size,)
    # <A(x y^T), c> = <A*(c), x y^T>
    lhs = float(b @ c)
    rhs = float(np.sum((obs.adjoint(c) @ f.y) * f.x))
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # <A_i, x y^T> = <g_i, y> with g_i = A_i^T x
    g = design(obs, f.x)
    assert g.shape == (obs.size, n, k)
    assert np.allclose(np.einsum("pnk,nk->p", g, f.y), b, rtol=1e-12, atol=1e-12)
    # the transposed set measures the transposed product
    assert np.allclose(obs.transposed.apply(FactorPair(f.y, f.x)), b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("make", [_entry_set, _gaussian_set])
def test_transposed_view_skips_the_constructor(make, monkeypatch):
    obs = make(np.random.RandomState(6))
    cls = type(obs)
    init, calls = cls.__init__, []

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    t = obs.transposed
    assert calls == []
    assert type(t) is cls and t.transposed is obs and t.shape == obs.shape[::-1]
    assert t.values is obs.values
    if cls is EntryObservations:
        assert t.row_idx is obs.col_idx and t.col_idx is obs.row_idx
        assert t.col_counts.tolist() == np.bincount(obs.row_idx, minlength=obs.shape[0]).tolist()
    else:
        assert np.shares_memory(t.measurements, obs.measurements)


def test_config_defaults_and_validation():
    cfg = EmfConfig(omega=0.25, rank=3)
    assert cfg.tol_objective == 1e-10
    assert cfg.tol_gradient == 1e-8
    assert cfg.ridge == 0.0
    assert cfg.max_outer == 100
    assert cfg.seed == 0
    for bad in (dict(omega=0.0), dict(omega=1.0), dict(rank=0), dict(ridge=-1.0),
                dict(ridge=float("inf")), dict(max_outer=-1), dict(seed=-1)):
        with pytest.raises(ValueError):
            EmfConfig(**{"omega": 0.5, "rank": 1, **bad})


@pytest.mark.parametrize("name", ["rank", "max_outer", "seed"])
def test_config_integer_fields(name):
    cfg = EmfConfig(**{"omega": 0.5, "rank": 1, name: np.int64(2)})
    assert type(getattr(cfg, name)) is int and getattr(cfg, name) == 2
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        EmfConfig(**{"omega": 0.5, "rank": 1, name: 2.5})


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(EmfConfig)])
def test_config_rejects_nan(name):
    with pytest.raises(ValueError):
        EmfConfig(**{"omega": 0.5, "rank": 1, name: float("nan")})


def test_solver_and_objective_reject_nan_ridge():
    obs = EntryObservations((2, 2), [0, 1], [0, 1], [1.0, 2.0])
    with pytest.raises(ValueError, match="ridge"):
        solve_y(np.ones((2, 1)), obs, 0.5, ridge=float("nan"))
    with pytest.raises(ValueError, match="ridge"):
        objective(obs, FactorPair(np.ones((2, 1)), np.ones((2, 1))), 0.5, ridge=float("nan"))


def test_solve_report_trace_validation():
    f = FactorPair([[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        SolveReport(factors=f, objective_trace=np.array([]))
    with pytest.raises(ValueError):
        SolveReport(factors=f, objective_trace=np.array([-1.0]))
    rep = SolveReport(factors=f, objective_trace=[1.0, 0.5])
    assert rep.objective_trace.dtype == np.float64


def test_solve_report_converged_follows_the_stop_reason():
    f = FactorPair([[1.0]], [[1.0]])
    for reason in StopReason:
        rep = SolveReport(factors=f, objective_trace=[1.0], stop_reason=reason)
        assert rep.converged == (reason is not StopReason.MAX_ITERATIONS)
    with pytest.raises(TypeError):
        SolveReport(factors=f, objective_trace=[1.0], converged=True)


def test_public_surface():
    names = emfkit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(emfkit, name) is not None
    for gone in ("solve_x", "predict", "reference_qp_solve", "InitTriple"):
        assert gone not in names and not hasattr(emfkit, gone)
    assert not hasattr(emfkit.subsolver, "solve_x")
    assert not hasattr(emfkit.subsolver, "reference_qp_solve")
    assert not hasattr(emfkit.emf, "predict")
    # svd_init returns the FactorPair a fit starts from
    assert not hasattr(emfkit.emf, "InitTriple")
    # fit reads the objective and the y-gradient from its half-steps
    assert not hasattr(emfkit.emf, "objective") and not hasattr(emfkit.emf, "gradient_y")
    # test-only code: the tests hold what they need of it
    for module, gone in ((emfkit.core, "frobenius_distance"), (emfkit.core, "product_entry"),
                         (emfkit.loss, "asymmetric_weight"), (emfkit.loss, "expectile_loss"),
                         (emfkit.loss, "gradient_x"), (emfkit.io, "write_triplets"),
                         (emfkit.loss, "objective"), (emfkit.loss, "gradient_y")):
        assert gone not in names and not hasattr(emfkit, gone) and not hasattr(module, gone)
    assert not hasattr(EntryObservations, "design")
    # the test oracle holds the residuals and the scalar bounded draw; fit
    # caps inner rounds with emf.MAX_INNER
    assert "residuals" not in names and not hasattr(emfkit, "residuals")
    assert not hasattr(emfkit.loss, "residuals") and not hasattr(emfkit.rng.Pcg32, "below")
    assert [f.name for f in dataclasses.fields(EmfConfig)] == [
        "omega", "rank", "max_outer", "tol_objective", "tol_gradient", "ridge", "seed"]
    assert "wall_seconds" not in {f.name for f in dataclasses.fields(SolveReport)}


@pytest.mark.parametrize("make, message", [
    (lambda: emfkit.core.as_matrix(np.ones(3), "x"), "x must be 2-D, got ndim=1"),
    (lambda: emfkit.core.as_matrix(np.ones((0, 2)), "x"),
     "x must have at least one row and column, got (0, 2)"),
    (lambda: EntryObservations((0, 2), [0], [0], [1.0]), "invalid shape (0, 2)"),
    (lambda: EntryObservations((2, 2), [[0]], [[0]], [[1.0]]),
     "row_idx, col_idx and values must be 1-D"),
    (lambda: EntryObservations((2, 2), [0, 1], [0], [1.0]),
     "row_idx, col_idx and values must have equal length"),
    (lambda: GeneralObservations((2, 2), np.ones((0, 2, 2)), []),
     "values must be a non-empty vector"),
], ids=["1-D matrix", "empty matrix", "zero shape", "2-D indices", "ragged entries",
        "no measurements"])
def test_core_refusals_name_their_cause(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
