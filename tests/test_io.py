import re
import warnings

import numpy as np
import pytest

from emfkit.core import DuplicateEntryError
from emfkit.io import (
    EmptyFileError,
    EmptyObservationsError,
    MatrixParseError,
    RaggedRowsError,
    SentinelCollisionError,
    export_results,
    load_dense,
    load_triplets,
    load_values,
    read_dense,
    read_results_csv,
    write_dense,
)


def test_load_dense_basic(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("1 -1\n3 4\n")
    obs = load_dense(f)
    assert obs.shape == (2, 2)
    triples = sorted(zip(obs.row_idx.tolist(), obs.col_idx.tolist(), obs.values.tolist()))
    assert triples == [(0, 0, 1.0), (1, 0, 3.0), (1, 1, 4.0)]


def test_load_dense_errors(tmp_path):
    # parse errors: test_load_dense_errors_keep_their_locations
    f = tmp_path / "m.txt"
    f.write_text("-1 -1\n-1 -1\n")
    with pytest.raises(EmptyObservationsError):
        load_dense(f)
    f.write_text("0.5 -1\n-2.5 4\n")  # sentinel -1 inside [-2.5, 4]
    message = f"{f}: sentinel -1.0 lies inside the observed value range [-2.5, 4.0]"
    with pytest.raises(SentinelCollisionError, match=f"^{re.escape(message)}$"):
        load_dense(f)


def test_dense_roundtrip(tmp_path):
    rng = np.random.RandomState(0)
    mat = rng.rand(7, 5) * 3 + 0.1
    mask = rng.rand(7, 5) < 0.6
    mask[0, 0] = True  # keep at least one observation
    f = tmp_path / "round.txt"
    write_dense(f, mat, mask, sentinel=-1.0)
    obs = load_dense(f, -1.0)
    assert np.array_equal(obs.values, mat[mask])  # exact round-trip
    got = np.zeros_like(mask)
    got[obs.row_idx, obs.col_idx] = True
    assert np.array_equal(got, mask)
    # negative values and -0.0 come back exactly, holes as the sentinel
    mat = rng.randn(12, 9) * 1e3
    mat[0, 0] = -0.0
    mask = rng.rand(12, 9) < 0.6
    mask[0, 0] = True
    write_dense(f, mat, mask, sentinel=-1e9)
    data, obs = read_dense(f), load_dense(f, -1e9)
    assert np.array_equal(data, np.where(mask, mat, -1e9))
    assert np.signbit(data[0, 0])
    assert np.array_equal(obs.values, mat[mask])


DENSE_ERRORS = [
    pytest.param("1 2\n3 nan\n", MatrixParseError, "line 2, column 2: non-finite value 'nan'",
                 id="nan"),
    pytest.param("1 2\f3 nan\n", MatrixParseError, "line 1, column 4: non-finite value 'nan'",
                 id="form-feed"),
    pytest.param("1 2\n-inf 4\n", MatrixParseError, "line 2, column 1: non-finite value '-inf'",
                 id="inf"),
    pytest.param("1 1e999\n", MatrixParseError, "line 1, column 2: non-finite value '1e999'",
                 id="overflow"),
    pytest.param("1 #2\n3 4\n", MatrixParseError,
                 "line 1, column 2: cannot parse '#2' as a real number", id="hash"),
    pytest.param("1 2\n3 4 # note\n", RaggedRowsError, "{path}: line 2 has 4 values, expected 2",
                 id="hash-comment"),
    pytest.param("1 2\n3 4x\n", MatrixParseError,
                 "line 2, column 2: cannot parse '4x' as a real number", id="token"),
    pytest.param("1 2 3\n4 5\n", RaggedRowsError, "{path}: line 2 has 2 values, expected 3",
                 id="ragged"),
    pytest.param("\n  \n1 2\n\n3 x\n", MatrixParseError,
                 "line 5, column 2: cannot parse 'x' as a real number", id="blank-lines"),
    pytest.param("\n \n\t\n", EmptyFileError, "{path}: no data lines", id="blank-only"),
    pytest.param("", EmptyFileError, "{path}: no data lines", id="empty"),
]


@pytest.mark.parametrize("text, error, message", DENSE_ERRORS)
def test_load_dense_errors_keep_their_locations(tmp_path, text, error, message):
    f = tmp_path / "m.txt"
    f.write_text(text)
    with pytest.raises(error) as info:
        load_dense(f)
    assert str(info.value) == message.format(path=f)


@pytest.mark.parametrize("text, error, message", [
    *(case for case in DENSE_ERRORS if case.values[1] is not RaggedRowsError),
    # rows of any length are read, so the comment fails at its first token
    pytest.param("1 2\n3 4 # note\n", MatrixParseError,
                 "line 2, column 3: cannot parse '#' as a real number", id="hash-comment"),
])
def test_load_values_errors_keep_the_dense_locations(tmp_path, text, error, message):
    f = tmp_path / "m.txt"
    f.write_text(text)
    with pytest.raises(error) as info:
        load_values(f)
    assert str(info.value) == message.format(path=f)


def test_load_values_reads_rows_of_any_length(tmp_path):
    # the lines read_dense refuses as ragged, flat in reading order; 4_0 only
    # parses token by token, and a form feed is whitespace inside a row
    f = tmp_path / "v.txt"
    f.write_text("1 2 3\n\n4 5\n")
    assert load_values(f).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    f.write_text("1 -1\f2\n4_0\n")
    assert load_values(f).tolist() == [1.0, 2.0, 40.0]


def _parse_dense_per_token(text):
    """The token-by-token parse read_dense must match: rows end at newlines
    only, and a form feed or vertical tab is whitespace inside a row."""
    return np.array([[float(t) for t in ln.split()] for ln in text.split("\n") if ln.strip()])


def test_load_dense_fast_path_matches_token_parse(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("\n1_0 2.5\n\n-3e-7\t+4\n.5 5.\n")  # 1_0 only parses token by token
    data = read_dense(f)
    assert np.array_equal(data, [[10.0, 2.5], [-3e-7, 4.0], [0.5, 5.0]])
    rng = np.random.RandomState(6)
    mat = rng.standard_t(3, (20, 30)) * 10.0 ** rng.randint(-20, 20, (20, 30))
    texts = ["1 2 3\n", "1\n2\n", "1 2\f3 4\n5\v6 7 8\n",
             "\n".join(" ".join(map(str, r)) for r in mat.tolist())]
    for text, shape in zip(texts, [(1, 3), (2, 1), (2, 4), mat.shape]):
        f.write_text(text)
        data = read_dense(f)
        assert data.shape == shape
        assert np.array_equal(data, _parse_dense_per_token(text))


def test_valid_dense_file_is_not_held_as_text(tmp_path, monkeypatch):
    # np.loadtxt reads the open file; only the token scan reads the text
    from pathlib import Path

    f, t = tmp_path / "m.txt", tmp_path / "t.txt"
    f.write_text("1 2\n3 4\n")
    t.write_text("2 2\n0 1 2.5\n1 0 -3\n")
    with monkeypatch.context() as patch:
        patch.setattr(Path, "read_text", lambda *a, **k: pytest.fail("read as text"))
        assert read_dense(f).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert load_values(f).tolist() == [1.0, 2.0, 3.0, 4.0]
        obs = load_triplets(t)
    assert (obs.row_idx.tolist(), obs.col_idx.tolist(), obs.values.tolist()) == (
        [0, 1], [1, 0], [2.5, -3.0])


def test_refused_files_are_scanned_from_the_open_file(tmp_path, monkeypatch):
    # the token scan reads the open file again line by line, not its whole
    # text, and still names the bad token's place
    from pathlib import Path

    f, t = tmp_path / "m.txt", tmp_path / "t.txt"
    f.write_text("1 2\n3 x\n")
    t.write_text("2 2\n0 1 2.5\n\n1 0 x\n")
    with monkeypatch.context() as patch:
        patch.setattr(Path, "read_text", lambda *a, **k: pytest.fail("read as text"))
        for load in (read_dense, load_values):
            with pytest.raises(MatrixParseError, match="^line 2, column 2: cannot parse 'x'"):
                load(f)
        with pytest.raises(MatrixParseError, match="^line 4, column 3: cannot parse 'x'"):
            load_triplets(t)


def test_write_dense_refuses_kept_values_around_the_sentinel(tmp_path):
    # a kept -1.0 would read back as a hole, and -2.0 and 0.5 make load_dense
    # refuse the file: neither is written
    f = tmp_path / "m.txt"
    mat = np.array([[-2.0, 3.0], [0.5, -1.0]])
    mask = np.array([[True, False], [True, True]])
    message = f"{f}: sentinel -1.0 lies inside the observed value range [-2.0, 0.5]"
    with pytest.raises(SentinelCollisionError, match=f"^{re.escape(message)}$"):
        write_dense(f, mat, mask)
    with pytest.raises(SentinelCollisionError):
        write_dense(f, np.array([[0.5, -1.0]]), np.array([[True, True]]))
    assert not f.exists()
    write_dense(f, mat, mat > 0)  # only 3.0 and 0.5 kept
    data, obs = read_dense(f), load_dense(f)
    assert np.array_equal(obs.values, [3.0, 0.5])
    assert np.array_equal(data, [[-1.0, 3.0], [0.5, -1.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("masked", [False, True], ids=["no_mask", "kept"])
def test_write_dense_refuses_non_finite_values(tmp_path, bad, masked):
    # read_dense would refuse the file, so no byte of it is written
    f = tmp_path / "m.txt"
    mat = np.array([[1.0, 2.0, 3.0], [4.0, bad, 6.0], [bad, 8.0, 9.0]])
    mask = np.ones(mat.shape, dtype=bool) if masked else None
    with pytest.raises(ValueError, match=re.escape(f"non-finite value {bad!r} at (1, 1)")):
        write_dense(f, mat, mask)
    assert not f.exists()
    # a non-finite value the mask drops is written as the sentinel
    keep = np.isfinite(mat)
    write_dense(f, mat, keep)
    data, obs = read_dense(f), load_dense(f)
    assert np.array_equal(data, np.where(keep, mat, -1.0))
    assert np.array_equal(obs.values, mat[keep])


def _write_dense_per_element(path, matrix, mask, sentinel):
    """The element-by-element writer write_dense must match byte for byte."""
    out = []
    for i in range(matrix.shape[0]):
        out.append(
            " ".join(
                repr(float(matrix[i, j])) if mask[i, j] else repr(float(sentinel))
                for j in range(matrix.shape[1])
            )
        )
    path.write_text("\n".join(out) + "\n")


def test_write_dense_bytes_match_the_per_element_writer(tmp_path):
    rng = np.random.RandomState(4)
    mat = rng.randn(9, 7) * 10.0 ** rng.randint(-300, 300, (9, 7))
    mat[0, :3] = [-0.0, 0.0, -1.5]
    mat[1, 1] = -0.0
    mask = rng.rand(9, 7) < 0.7
    mask[0, :3] = True
    mask[1, 1] = False
    # kept values on one side of the sentinel, as write_dense requires:
    # zeros of either sign, negatives and subnormals among them
    fast, slow = tmp_path / "fast.txt", tmp_path / "slow.txt"
    for sentinel, kept in ((-1.0, np.abs(mat)), (-0.0, np.maximum(np.abs(mat), 5e-324)),
                           (7, -np.abs(mat))):
        write_dense(fast, kept, mask, sentinel)
        _write_dense_per_element(slow, kept, mask, sentinel)
        assert fast.read_bytes() == slow.read_bytes()
    write_dense(fast, mat)
    _write_dense_per_element(slow, mat, np.ones(mat.shape, dtype=bool), -1.0)
    assert fast.read_bytes() == slow.read_bytes()
    assert b"-0.0" in fast.read_bytes()


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
    # an index beyond int64 is beyond any shape
    f.write_text(f"2 2\n0 0 1.0\n1 {2**63} 1.0\n")
    with pytest.raises(MatrixParseError, match="^line 3: index out of range$"):
        load_triplets(f)
    f.write_text("2 2\n")
    with pytest.raises(EmptyObservationsError):
        load_triplets(f)


def _loadtxt_parsing_ints_via_floats(lines, **kwargs):
    """np.loadtxt as older numpy runs it on an index like 2.1: a warning, then 2.

    lines is a list of strings or an open file, read to its end."""
    warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                  DeprecationWarning, stacklevel=2)
    return np.zeros(len(list(lines)), dtype=kwargs["dtype"])


@pytest.mark.parametrize("index", ["1.0", "2.1"])
@pytest.mark.parametrize("loadtxt", [np.loadtxt, _loadtxt_parsing_ints_via_floats],
                         ids=["installed", "warning"])
def test_float_triplet_indices_are_refused_at_their_line(tmp_path, monkeypatch, index, loadtxt):
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    f = tmp_path / "t.txt"
    f.write_text(f"3 3\n0 0 1.0\n\n{index} 0 1.0\n")
    with pytest.raises(MatrixParseError, match="^line 4: indices must be integers$"):
        load_triplets(f)
    f.write_text(f"3 3\n0 0 1.0\n1 {index} 1.0\n")
    with pytest.raises(MatrixParseError, match="^line 3: indices must be integers$"):
        load_triplets(f)


def test_valid_triplet_file_is_parsed_in_one_call(tmp_path, monkeypatch):
    import emfkit.io

    def refuse(token, lineno, col):
        raise AssertionError(f"line {lineno} parsed token by token")

    f = tmp_path / "t.txt"
    f.write_text("\n3 2\n0 1 -2.5\n\n2 0\t1e3\n1 1 0.1\n")
    with monkeypatch.context() as patch:
        patch.setattr(emfkit.io, "_parse_real", refuse)
        obs = load_triplets(f)
    assert obs.shape == (3, 2)
    assert obs.row_idx.tolist() == [0, 2, 1] and obs.col_idx.tolist() == [1, 0, 1]
    assert obs.values.tolist() == [-2.5, 1000.0, 0.1]
    # a non-finite value sends the file to the line loop, which names its line
    f.write_text("2 2\n0 0 1\n\n1 1 nan\n")
    with pytest.raises(MatrixParseError, match="line 4, column 3: non-finite"):
        load_triplets(f)


@pytest.mark.parametrize("text, message", [
    ("2 2\n0 0 1.5\f\n1 x 2.5\n", "line 3: indices must be integers"),
    ("2 2\n0 0 1.5\f1 1 2.5\n", "line 2: expected 'i j value', got 6 tokens"),
], ids=["bad-index", "two-entries"])
def test_triplet_lines_end_at_newlines_only(tmp_path, text, message):
    # as in read_dense, a form feed is whitespace inside a line, so it
    # neither starts a line nor moves the line numbers after it
    f = tmp_path / "t.txt"
    f.write_text(text)
    with pytest.raises(MatrixParseError, match=f"^{re.escape(message)}$"):
        load_triplets(f)


def test_triplet_line_loop_reads_what_loadtxt_refuses(tmp_path):
    # Python's int and float read 0_1 and 2_5, np.loadtxt does not: the file
    # goes to the line loop, which returns its entries, as read_dense's token
    # loop reads 1_0
    f = tmp_path / "t.txt"
    f.write_text("2 2\n0 0_1 2_5\n")
    obs = load_triplets(f)
    assert obs.shape == (2, 2)
    assert (obs.row_idx.tolist(), obs.col_idx.tolist(), obs.values.tolist()) == ([0], [1], [25.0])


def test_triplet_and_dense_loaders_agree(tmp_path):
    rng = np.random.RandomState(1)
    mat = rng.rand(6, 4) + 0.5
    mask = rng.rand(6, 4) < 0.5
    mask[2, 2] = True
    dense_path = tmp_path / "d.txt"
    write_dense(dense_path, mat, mask)
    from_dense = load_dense(dense_path)
    trip_path = tmp_path / "t.txt"
    triples = zip(from_dense.row_idx.tolist(), from_dense.col_idx.tolist(),
                  from_dense.values.tolist())
    header = "{} {}\n".format(*from_dense.shape)
    trip_path.write_text(header + "".join(f"{i} {j} {v!r}\n" for i, j, v in triples))
    from_trip = load_triplets(trip_path)
    assert from_trip.shape == from_dense.shape
    assert np.array_equal(from_trip.row_idx, from_dense.row_idx)
    assert np.array_equal(from_trip.col_idx, from_dense.col_idx)
    assert np.array_equal(from_trip.values, from_dense.values)


def test_export_roundtrip_and_determinism(tmp_path):
    rows = [("re_median", "", 0.125), ("re_iqr", "", 0.5), ("stop_reason", "MAX_ITERATIONS", 1)]
    echo, cdf = ("r1", 0.1, 2, 0.3, 7), (np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5, 1.0]))
    out = tmp_path / "run.csv"
    export_results(out, "csv", echo, rows, cdf)
    parsed = read_results_csv(out)
    # the rows as handed over, in order, each with the echo columns
    assert [(r["metric"], r["bin"], r["value"]) for r in parsed] == rows
    assert {(r["run_id"], r["omega"], r["rank"], r["sampling_rate"], r["seed"])
            for r in parsed} == {("r1", "0.1", "2", "0.3", "7")}

    first = out.read_bytes()
    export_results(out, "csv", echo, rows, cdf)
    assert out.read_bytes() == first  # byte-identical re-export

    lines = (tmp_path / "run.cdf.re.csv").read_text().splitlines()
    assert lines == ["grid,fraction", "0.0,0.0", "0.5,0.5", "1.0,1.0"]


def test_export_empty_cdf_and_json_mirror(tmp_path):
    out = tmp_path / "empty.csv"
    export_results(out, "csv", ("r2", 0.5, 1, 1.0, 0), [], ([], []))
    assert out.read_text() == "run_id,omega,rank,sampling_rate,seed,metric,bin,value\n"
    cdf_lines = (tmp_path / "empty.cdf.re.csv").read_text().splitlines()
    assert cdf_lines == ["grid,fraction"]

    import json

    jout = tmp_path / "run.json"
    export_results(jout, "json", ("r3", 0.9, 3, 0.05, 1),
                   [("re_median", "", 0.125), ("re_count", "", 4)], ([0.0, 1.0], [0.25, 1]))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.cdf.re.csv", "empty.csv",
                                                          "run.json"]
    doc = json.loads(jout.read_text())
    assert (doc["run_id"], doc["omega"], doc["rank"], doc["sampling_rate"], doc["seed"]) == (
        "r3", 0.9, 3, 0.05, 1)
    assert doc["metrics"] == [{"metric": "re_median", "bin": "", "value": 0.125},
                              {"metric": "re_count", "bin": "", "value": 4.0}]
    assert doc["cdf"] == {"re": {"grid": [0.0, 1.0], "fraction": [0.25, 1.0]}}
    assert '"value": 4.0' in jout.read_text()  # numbers are written as reals


@pytest.mark.parametrize("text, message", [
    ("\n  \n", "no data lines"),
    ("3 4 5\n0 0 1.0\n", "line 1: header must be 'm n', got ['3', '4', '5']"),
    ("\n3 x\n0 0 1.0\n", "line 2: header must be 'm n', got ['3', 'x']"),
], ids=["blank", "three-token header", "non-integer header"])
def test_load_triplets_refuses_a_bad_header(tmp_path, text, message):
    path = tmp_path / "t.txt"
    path.write_text(text)
    with pytest.raises((EmptyFileError, MatrixParseError), match=re.escape(message)):
        load_triplets(path)


@pytest.mark.parametrize("text", ["", "metric,value\n"], ids=["empty", "foreign header"])
def test_read_results_csv_refuses_a_file_without_its_header(tmp_path, text):
    path = tmp_path / "r.csv"
    path.write_text(text)
    with pytest.raises(MatrixParseError, match=re.escape(f"{path}: missing results header")):
        read_results_csv(path)
