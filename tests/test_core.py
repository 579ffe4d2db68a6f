import numpy as np
import pytest

from emfkit.core import (
    DuplicateEntryError,
    EmfConfig,
    EntryObservations,
    FactorPair,
    GeneralObservations,
    SolveReport,
    frobenius_distance,
    product_entry,
)


def test_product_entry_orthogonal_rows():
    f = FactorPair([[1.0, 0.0]], [[0.0, 1.0]])
    assert product_entry(f, 0, 0) == 0.0


def test_product_entry_direct():
    f = FactorPair([[1.0, 2.0]], [[3.0, 4.0]])
    assert product_entry(f, 0, 0) == 11.0


def test_product_entry_ones_outer():
    f = FactorPair(np.ones((3, 1)), np.ones((4, 1)))
    for i in range(3):
        for j in range(4):
            assert product_entry(f, i, j) == 1.0


def test_product_entry_matches_materialized_product():
    rng = np.random.RandomState(0)
    for _ in range(10):
        f = FactorPair(rng.randn(5, 3), rng.randn(4, 3))
        full = f.x @ f.y.T
        for i in range(5):
            for j in range(4):
                assert product_entry(f, i, j) == pytest.approx(full[i, j], abs=1e-14)


def test_product_entry_out_of_range():
    f = FactorPair([[1.0]], [[1.0]])
    with pytest.raises(IndexError):
        product_entry(f, 1, 0)
    with pytest.raises(IndexError):
        product_entry(f, 0, -1)


def test_frobenius_distance_basics():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert frobenius_distance(a, a) == 0.0
    assert frobenius_distance([[3.0]], [[0.0]]) == 3.0
    assert frobenius_distance(a, np.zeros((2, 2))) == 2.0


def test_frobenius_distance_shape_mismatch():
    with pytest.raises(ValueError):
        frobenius_distance(np.ones((2, 2)), np.ones((2, 3)))


def test_frobenius_triangle_and_symmetry():
    rng = np.random.RandomState(1)
    for _ in range(20):
        a, b, c = (rng.randn(4, 3) for _ in range(3))
        assert frobenius_distance(a, b) == pytest.approx(frobenius_distance(b, a))
        assert frobenius_distance(a, c) <= (
            frobenius_distance(a, b) + frobenius_distance(b, c) + 1e-12
        )


def test_factor_pair_validation():
    with pytest.raises(ValueError):
        FactorPair(np.ones((2, 2)), np.ones((3, 3)))
    with pytest.raises(ValueError):
        FactorPair(np.array([[np.nan]]), np.ones((1, 1)))


def test_entry_observations_rejects_duplicates():
    with pytest.raises(DuplicateEntryError, match=r"\(1, 2\)"):
        EntryObservations((3, 3), [0, 1, 1], [0, 2, 2], [1.0, 2.0, 3.0])


def test_entry_observations_rejects_bad_indices_and_values():
    with pytest.raises(ValueError):
        EntryObservations((2, 2), [2], [0], [1.0])
    with pytest.raises(ValueError):
        EntryObservations((2, 2), [0], [-1], [1.0])
    with pytest.raises(ValueError):
        EntryObservations((2, 2), [0], [0], [np.inf])
    with pytest.raises(ValueError):
        EntryObservations((2, 2), [], [], [])


def test_entry_observations_grouping_views():
    obs = EntryObservations((3, 3), [0, 2, 2], [1, 0, 1], [5.0, 6.0, 7.0])
    v = np.array([1.0, 10.0, 100.0])
    assert (obs.by_col @ v).tolist() == [10.0, 101.0, 0.0]
    assert obs.row_counts.tolist() == [1, 0, 2]
    assert obs.col_counts.tolist() == [1, 2, 0]
    # one bucket per padded width: empty column 2, column 0, column 1
    empty, single, pair = obs.column_buckets
    assert empty.cols.tolist() == [2] and empty.rows.shape == (1, 0)
    assert single.cols.tolist() == [0] and single.rows.tolist() == [[2]]
    assert pair.cols.tolist() == [1] and pair.rows.tolist() == [[0, 2]]
    assert pair.values.tolist() == [[5.0, 7.0]] and pair.obs.tolist() == [0, 2]
    assert all(b.live.all() for b in obs.column_buckets)


def test_entry_observations_transpose_roundtrip():
    obs = EntryObservations((3, 2), [0, 2], [1, 0], [5.0, 6.0])
    t = obs.transposed
    assert t.shape == (2, 3)
    assert t.row_idx.tolist() == obs.col_idx.tolist()
    assert t.transposed is obs
    dense = obs.to_sparse().toarray()
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
    assert np.allclose(g.weighted_sum(), a + 2 * (2 * a))
    assert g.transposed.shape == (2, 2)


def test_config_defaults_and_validation():
    cfg = EmfConfig(omega=0.25, rank=3)
    assert cfg.tol_objective == 1e-10
    assert cfg.tol_gradient == 1e-8
    assert cfg.ridge == 0.0
    assert cfg.use_qr is False
    assert cfg.max_inner == 100
    assert cfg.eval_denominator_floor == 1e-12
    for bad in (dict(omega=0.0), dict(omega=1.0), dict(rank=0), dict(ridge=-1.0),
                dict(max_outer=-1), dict(max_inner=0)):
        with pytest.raises(ValueError):
            EmfConfig(**{"omega": 0.5, "rank": 1, **bad})


def test_solve_report_trace_validation():
    f = FactorPair([[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        SolveReport(factors=f, objective_trace=np.array([]))
    with pytest.raises(ValueError):
        SolveReport(factors=f, objective_trace=np.array([-1.0]))
    rep = SolveReport(factors=f, objective_trace=[1.0, 0.5])
    assert rep.objective_trace.dtype == np.float64
