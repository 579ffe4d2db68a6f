import numpy as np
import pytest

from emfkit.core import DuplicateEntryError, FactorPair, SolveReport
from emfkit.io import (
    EmptyFileError,
    EmptyObservationsError,
    MatrixFileSpec,
    MatrixParseError,
    RaggedRowsError,
    SentinelCollisionError,
    export_results,
    load_dense,
    load_triplets,
    read_results_csv,
    write_dense,
    write_triplets,
)


def test_load_dense_basic(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("1 -1\n3 4\n")
    data, obs = load_dense(f)
    assert data.shape == (2, 2)
    triples = sorted(zip(obs.row_idx.tolist(), obs.col_idx.tolist(), obs.values.tolist()))
    assert triples == [(0, 0, 1.0), (1, 0, 3.0), (1, 1, 4.0)]


def test_load_dense_errors(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("")
    with pytest.raises(EmptyFileError):
        load_dense(f)
    f.write_text("1 2\n3\n")
    with pytest.raises(RaggedRowsError, match="line 2"):
        load_dense(f)
    f.write_text("1 x\n")
    with pytest.raises(MatrixParseError, match="line 1, column 2"):
        load_dense(f)
    f.write_text("1 nan\n")
    with pytest.raises(MatrixParseError):
        load_dense(f)
    f.write_text("-1 -1\n-1 -1\n")
    with pytest.raises(EmptyObservationsError):
        load_dense(f)
    f.write_text("0.5 -1\n-2.5 4\n")  # sentinel -1 inside [-2.5, 4]
    with pytest.raises(SentinelCollisionError):
        load_dense(f)


def test_dense_roundtrip(tmp_path):
    rng = np.random.RandomState(0)
    mat = rng.rand(7, 5) * 3 + 0.1
    mask = rng.rand(7, 5) < 0.6
    mask[0, 0] = True  # keep at least one observation
    f = tmp_path / "round.txt"
    write_dense(f, mat, mask, sentinel=-1.0)
    data, obs = load_dense(f, MatrixFileSpec("dense", -1.0))
    assert np.array_equal(data[mask], mat[mask])  # exact round-trip
    got = np.zeros_like(mask)
    got[obs.row_idx, obs.col_idx] = True
    assert np.array_equal(got, mask)


def test_load_triplets(tmp_path):
    f = tmp_path / "t.txt"
    f.write_text("2 2\n0 0 5.0\n")
    obs = load_triplets(f)
    assert obs.shape == (2, 2) and obs.size == 1
    assert obs.values[0] == 5.0


def test_load_triplets_errors(tmp_path):
    f = tmp_path / "t.txt"
    f.write_text("2 2\n0 0 1.0\n0 0 2.0\n")
    with pytest.raises(DuplicateEntryError):
        load_triplets(f)
    f.write_text("2 2\n5 0 1.0\n")
    with pytest.raises(ValueError, match="out of range"):
        load_triplets(f)
    f.write_text("2 2\n0 0\n")
    with pytest.raises(MatrixParseError, match="line 2"):
        load_triplets(f)
    f.write_text("2 2\n")
    with pytest.raises(EmptyObservationsError):
        load_triplets(f)


def test_triplet_and_dense_loaders_agree(tmp_path):
    rng = np.random.RandomState(1)
    mat = rng.rand(6, 4) + 0.5
    mask = rng.rand(6, 4) < 0.5
    mask[2, 2] = True
    dense_path = tmp_path / "d.txt"
    write_dense(dense_path, mat, mask)
    _, from_dense = load_dense(dense_path)
    trip_path = tmp_path / "t.txt"
    write_triplets(trip_path, from_dense)
    from_trip = load_triplets(trip_path)
    assert from_trip.shape == from_dense.shape
    assert np.array_equal(from_trip.row_idx, from_dense.row_idx)
    assert np.array_equal(from_trip.col_idx, from_dense.col_idx)
    assert np.array_equal(from_trip.values, from_dense.values)


def _dummy_report():
    return SolveReport(
        factors=FactorPair([[1.0]], [[1.0]]),
        objective_trace=np.array([4.0, 1.0, 0.25]),
        inner_iters=[2, 2],
        converged=True,
        uncertified_solves=3,
    )


def test_export_roundtrip_and_determinism(tmp_path):
    rows = [("re_median", "", 0.125), ("re_iqr", "", 0.5)]
    grid = np.array([0.0, 0.5, 1.0])
    frac = np.array([0.0, 0.5, 1.0])
    out = tmp_path / "run.csv"
    paths = export_results(
        _dummy_report(), rows, {"re": (grid, frac)}, out, "csv",
        run_id="r1", omega=0.1, rank=2, sampling_rate=0.3, seed=7,
    )
    assert out in paths
    parsed = read_results_csv(out)
    trace = [r["value"] for r in parsed if r["metric"] == "objective_trace"]
    assert trace == [4.0, 1.0, 0.25]
    certs = [r["value"] for r in parsed if r["metric"] in ("converged", "uncertified_solves")]
    assert certs == [1.0, 3.0]
    med = [r for r in parsed if r["metric"] == "re_median"][0]
    assert med["value"] == 0.125
    assert med["omega"] == "0.1" and med["seed"] == "7"

    first = out.read_bytes()
    export_results(
        _dummy_report(), rows, {"re": (grid, frac)}, out, "csv",
        run_id="r1", omega=0.1, rank=2, sampling_rate=0.3, seed=7,
    )
    assert out.read_bytes() == first  # byte-identical re-export

    cdf_file = tmp_path / "run.cdf.re.csv"
    lines = cdf_file.read_text().splitlines()
    assert lines[0] == "grid,fraction"
    assert len(lines) == 4


def test_export_empty_cdf_and_json_mirror(tmp_path):
    out = tmp_path / "empty.csv"
    export_results(
        None, [], {"re": ([], [])}, out, "csv",
        run_id="r2", omega=0.5, rank=1, sampling_rate=1.0, seed=0,
    )
    cdf_lines = (tmp_path / "empty.cdf.re.csv").read_text().splitlines()
    assert cdf_lines == ["grid,fraction"]

    import json

    jout = tmp_path / "run.json"
    export_results(
        _dummy_report(), [("re_median", "", 0.125)], {}, jout, "json",
        run_id="r3", omega=0.9, rank=3, sampling_rate=0.05, seed=1,
    )
    doc = json.loads(jout.read_text())
    assert doc["omega"] == 0.9
    metrics = {(m["metric"], m["bin"]): m["value"] for m in doc["metrics"]}
    assert metrics[("re_median", "")] == 0.125
    assert metrics[("objective_trace", "2")] == 0.25


def test_export_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export_results(None, [], {}, tmp_path / "x", "xml",
                       run_id="r", omega=0.5, rank=1, sampling_rate=1.0, seed=0)
