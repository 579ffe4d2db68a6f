import dataclasses
import json
import multiprocessing
import sys

import numpy as np
import pytest

import emfkit.cli
import emfkit.metrics
import emfkit.subsolver
from emfkit.cli import ExperimentPlan, _resolve_plan, build_parser, main
from emfkit.core import EmfConfig, FactorPair, SolveReport, StopReason
from emfkit.emf import fit
from emfkit.io import load_dense, read_results_csv, write_dense
from emfkit.synth import gen_low_rank, make_completion_instance, sample_mask


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def run_cli(*args):
    return main([str(a) for a in args])


def test_synth_smoke_grid_files_and_determinism(tmp_path):
    out = tmp_path / "res"
    args = [
        "synth-exp", "--m", 50, "--n", 50, "--k-true", 2, "--rank", 2,
        "--sampling-rate", 0.3, "--noise-scale", 0.2, "--dof", 3,
        "--omega", 0.2, "--omega", 0.5, "--seed", 1,
        "--max-outer", 40, "--tol-obj", "1e-8", "--out-dir", out,
        "--cdf-points", 11,
    ]
    assert run_cli(*args) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "plan.txt", "summary.csv",
        "synth_s1_w0.2.csv", "synth_s1_w0.2.cdf.re.csv",
        "synth_s1_w0.5.csv", "synth_s1_w0.5.cdf.re.csv",
    }
    assert "toolkit_version" in (out / "plan.txt").read_text()
    rows = read_results_csv(out / "summary.csv")
    medians = {r["omega"]: r["value"] for r in rows if r["metric"] == "re_median"}
    assert set(medians) == {"0.2", "0.5"}
    # skewed noise: the low-omega fit recovers the clean truth better
    assert medians["0.2"] < medians["0.5"]

    before = _dir_bytes(out)
    assert run_cli(*args) == 0
    assert _dir_bytes(out) == before  # byte-identical rerun


def _complete_input(tmp_path):
    f = gen_low_rank(40, 30, 2, seed=11)
    src = tmp_path / "matrix.txt"
    write_dense(src, f.x @ f.y.T + 0.05)
    return src


@pytest.mark.parametrize("mode", ["synth-exp", "complete"])
def test_synth_workers_match_serial(tmp_path, mode):
    if mode == "synth-exp":
        base = [
            "synth-exp", "--m", 30, "--n", 30, "--k-true", 2, "--rank", 2,
            "--sampling-rate", 0.4, "--noise-scale", 0.1, "--dof", 3,
        ]
    else:  # the workers get the parsed matrix, not the file name
        base = ["complete", "--input", _complete_input(tmp_path), "--rank", 2,
                "--sampling-rate", 0.4, "--bins", "0,0.5,1,5"]
    base += [
        "--omega", 0.3, "--omega", 0.7, "--seed", 0, "--seed", 1,
        "--max-outer", 25, "--cdf-points", 5,
    ]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert run_cli(*base, "--out-dir", serial, "--workers", 1) == 0
    assert run_cli(*base, "--out-dir", parallel, "--workers", 2) == 0
    a = {k: v for k, v in _dir_bytes(serial).items() if k != "plan.txt"}
    b = {k: v for k, v in _dir_bytes(parallel).items() if k != "plan.txt"}
    assert a == b


class CountingProvider:
    """The synth-exp instance provider, counting how often it is pickled."""

    pickles = 0

    def __call__(self, plan, seed):
        return emfkit.cli._synth_instance(plan, seed)

    def __reduce__(self):
        CountingProvider.pickles += 1
        return (CountingProvider, ())


def test_grid_workers_get_the_provider_once(tmp_path, monkeypatch):
    monkeypatch.setattr(CountingProvider, "pickles", 0)
    plan = ExperimentPlan(
        "synth-exp", omega=(0.3, 0.7), seed=(0, 1, 2), m=20, n=20, k_true=2, rank=2,
        sampling_rate=0.5, max_outer=3, cdf_points=5, workers=2, out_dir=str(tmp_path),
    )
    assert emfkit.cli._run_grid(plan, "synth", CountingProvider()) == 0
    # once per worker at most (zero under fork), not once per each of the 6 cells
    assert CountingProvider.pickles <= plan.workers
    assert len(list(tmp_path.glob("synth_s*_w*.cdf.re.csv"))) == 6


class InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, runs cells in-process."""

    sizes = []

    def __init__(self, max_workers, initializer, initargs):
        InlinePool.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_grid_pool_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    # a forking pool starts all max_workers processes at the first submit
    monkeypatch.setattr(emfkit.cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(emfkit.subsolver, "ROUND_THREADS", None)
    monkeypatch.setattr(emfkit.cli, "_worker_provider", None)
    for workers, omegas, size in ((8, (0.3, 0.7), 2), (2, (0.2, 0.4, 0.6), 2)):
        plan = ExperimentPlan(
            "synth-exp", omega=omegas, seed=(0,), m=12, n=10, k_true=2, rank=2,
            sampling_rate=0.5, max_outer=2, cdf_points=5, workers=workers,
            out_dir=str(tmp_path / str(workers)),
        )
        (tmp_path / str(workers)).mkdir()
        assert emfkit.cli._run_grid(plan, "synth", emfkit.cli._synth_instance) == 0
        assert InlinePool.sizes[-1] == size
        assert len(list((tmp_path / str(workers)).glob("synth_s0_w*.cdf.re.csv"))) == len(omegas)


def test_grid_workers_solve_rounds_serially(monkeypatch):
    # the grid already uses the cores, so a worker's fits use one thread each
    monkeypatch.setattr(emfkit.subsolver, "ROUND_THREADS", None)
    monkeypatch.setattr(emfkit.cli, "_worker_provider", None)
    emfkit.cli._set_worker_provider(CountingProvider())
    assert emfkit.subsolver.ROUND_THREADS == 1


def _exit_with_cli(args):
    sys.exit(run_cli(*args))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the grid's pool forks only where fork exists")
def test_grid_forked_after_a_threaded_fit_finishes(tmp_path, monkeypatch):
    # a fit in this process solves its rounds on a thread pool; a grid forked
    # from it afterwards, whose own pool forks again, must not inherit that
    # pool: it finishes and writes what a serial grid writes
    monkeypatch.setattr(emfkit.subsolver, "ROUND_THREADS", 2)
    monkeypatch.setattr(emfkit.subsolver, "_THREADED_NUMBERS", 0)
    inst = make_completion_instance(60, 60, 3, noise_scale=0.5, dof=3, rate=0.3, seed=0)
    assert len(inst.observed.column_buckets) > 1
    fit(inst.observed, EmfConfig(omega=0.2, rank=3, max_outer=3, seed=0))
    base = [
        "synth-exp", "--m", 20, "--n", 20, "--k-true", 2, "--rank", 2,
        "--sampling-rate", 0.5, "--omega", 0.3, "--omega", 0.7, "--seed", 0, "--seed", 1,
        "--max-outer", 5, "--cdf-points", 5,
    ]
    context = multiprocessing.get_context("fork")
    for workers in (1, 2):
        args = base + ["--out-dir", tmp_path / str(workers), "--workers", workers]
        grid = context.Process(target=_exit_with_cli, args=(args,))
        grid.start()
        grid.join(timeout=120)
        hung = grid.is_alive()
        if hung:
            grid.kill()
            grid.join()
        assert not hung, f"the --workers {workers} grid did not finish in 120 s"
        assert grid.exitcode == 0
    a = {k: v for k, v in _dir_bytes(tmp_path / "1").items() if k != "plan.txt"}
    b = {k: v for k, v in _dir_bytes(tmp_path / "2").items() if k != "plan.txt"}
    assert len(a) == 9 and a == b


def test_complete_parses_its_input_once_per_grid(tmp_path, monkeypatch):
    calls = []
    load = emfkit.cli.load_dense

    def counting_load(*args, **kwargs):
        calls.append(args[0])
        return load(*args, **kwargs)

    monkeypatch.setattr(emfkit.cli, "load_dense", counting_load)
    code = run_cli(
        "complete", "--input", _complete_input(tmp_path), "--sampling-rate", 0.4,
        "--omega", 0.3, "--omega", 0.7, "--seed", 0, "--seed", 1, "--rank", 2,
        "--max-outer", 5, "--cdf-points", 5, "--out-dir", tmp_path / "res",
    )
    assert code == 0
    assert len(calls) == 1


def test_summary_rows_are_verbatim_run_rows(tmp_path):
    out = tmp_path / "res"
    code = run_cli(
        "complete", "--input", _complete_input(tmp_path), "--sampling-rate", 0.4,
        "--omega", 0.3, "--omega", 0.7, "--seed", 0, "--seed", 1, "--rank", 2,
        "--max-outer", 5, "--bins", "0,0.5,1,5", "--cdf-points", 5, "--out-dir", out,
    )
    assert code == 0
    header, *lines = (out / "summary.csv").read_text().splitlines()
    runs = {}
    for line in lines:
        runs.setdefault(line.split(",")[0], []).append(line)
    assert len(runs) == 4
    for run_id, summary in runs.items():
        run_header, *run_lines = (out / f"{run_id}.csv").read_text().splitlines()
        assert run_header == header
        # the summary rows lead the run's rows, which add the report's
        assert run_lines[:len(summary)] == summary
        assert len(run_lines) > len(summary)


def test_complete_scores_each_cell_once(tmp_path, monkeypatch):
    # every relative error reads estimates from cli.product_at_entries, the
    # binned rows included
    scored = []
    product = emfkit.cli.product_at_entries

    def counting_product(f, rows, cols):
        scored.append(len(rows))
        return product(f, rows, cols)

    monkeypatch.setattr(emfkit.cli, "product_at_entries", counting_product)
    out = tmp_path / "res"
    code = run_cli(
        "complete", "--input", _complete_input(tmp_path), "--sampling-rate", 0.4,
        "--omega", 0.3, "--omega", 0.7, "--seed", 0, "--seed", 1, "--rank", 2,
        "--max-outer", 5, "--bins", "0,0.5,1,5", "--cdf-points", 5, "--out-dir", out,
    )
    assert code == 0
    counts = [r["value"] for r in read_results_csv(out / "summary.csv")
              if r["metric"] == "re_count"]
    assert len(counts) == 4
    assert sorted(scored) == sorted(counts)


def test_complete_mode_end_to_end(tmp_path):
    out = tmp_path / "res"
    code = run_cli(
        "complete", "--input", _complete_input(tmp_path), "--sampling-rate", 0.4,
        "--omega", 0.5, "--seed", 3, "--rank", 2, "--max-outer", 30,
        "--bins", "0,0.5,1,5", "--out-dir", out, "--cdf-points", 21,
    )
    assert code == 0
    rows = read_results_csv(out / "complete_s3_w0.5.csv")
    metrics = {(r["metric"], r["bin"]) for r in rows}
    assert ("re_median", "") in metrics
    assert any(m == "bin_fraction" for m, _ in metrics)
    fractions = [r["value"] for r in rows if r["metric"] == "bin_fraction"]
    assert sum(fractions) == pytest.approx(1.0)
    stops = [r["bin"] for r in rows if r["metric"] == "stop_reason"]
    assert len(stops) == 1 and stops[0] in StopReason.__members__


def test_report_rows_follow_the_fit():
    report = SolveReport(factors=FactorPair([[1.0]], [[1.0]]),
                         objective_trace=np.array([4.0, 1.0, 0.25]), inner_iters=[2, 2],
                         stop_reason=StopReason.TOLERANCE_GRADIENT, uncertified_solves=3)
    # the stop reason's name is the bin of a row right after `converged`
    assert emfkit.cli._report_rows(report) == [
        ("objective_trace", "0", 4.0), ("objective_trace", "1", 1.0),
        ("objective_trace", "2", 0.25), ("converged", "", 1.0),
        ("stop_reason", "TOLERANCE_GRADIENT", 1.0), ("uncertified_solves", "", 3.0),
        ("outer_iterations", "", 2.0)]


@pytest.mark.parametrize("mode", ["synth-exp", "complete", "evaluate"])
def test_json_mirror_holds_the_csv_rows_and_cdf(tmp_path, mode):
    src = _complete_input(tmp_path)
    args = {"synth-exp": ["--m", 30, "--n", 20, "--k-true", 2, "--sampling-rate", 0.3],
            "complete": ["--input", src, "--sampling-rate", 0.4, "--bins", "0,0.5,1,5"],
            "evaluate": ["--input", src, "--estimate", src]}[mode]
    common = ["--omega", 0.3, "--seed", 2, "--rank", 2, "--max-outer", 3, "--ridge", 0.1,
              "--cdf-points", 5]
    # the json plan runs twice
    for fmt, out in ("csv", "csv"), ("json", "json"), ("json", "json-again"):
        assert run_cli(mode, *args, *common, "--format", fmt, "--out-dir", tmp_path / out) == 0
    again = [{k: v for k, v in _dir_bytes(tmp_path / out).items() if k != "plan.txt"}
             for out in ("json", "json-again")]
    assert again[0] == again[1]  # byte-identical
    run_id = {"synth-exp": "synth_s2_w0.3", "complete": "complete_s2_w0.3"}.get(mode, "evaluate")
    rows = read_results_csv(tmp_path / "csv" / f"{run_id}.csv")
    doc = json.loads((tmp_path / "json" / f"{run_id}.json").read_text())
    echo = {key: str(doc[key]) for key in ("run_id", "omega", "rank", "sampling_rate", "seed")}
    assert [dict(echo, **m) for m in doc["metrics"]] == rows
    cdf = np.loadtxt(tmp_path / "csv" / f"{run_id}.cdf.re.csv", delimiter=",", skiprows=1)
    assert doc["cdf"] == {"re": {"grid": cdf[:, 0].tolist(), "fraction": cdf[:, 1].tolist()}}
    if mode != "evaluate":
        # a grid's rows end with its fit's, and its summary is the same in either format
        assert doc["metrics"][-1]["metric"] == "outer_iterations"
        summaries = [(tmp_path / fmt / "summary.csv").read_bytes() for fmt in ("csv", "json")]
        assert summaries[0] == summaries[1]


def _write_triplets(path, obs):
    """The triplet file of an entry set: header ``m n``, then ``i j value`` lines."""
    triples = zip(obs.row_idx.tolist(), obs.col_idx.tolist(), obs.values.tolist())
    header = "{} {}\n".format(*obs.shape)
    path.write_text(header + "".join(f"{i} {j} {v!r}\n" for i, j, v in triples))


def test_complete_dense_and_triplet_inputs_agree(tmp_path):
    # both formats give the same observed entries, so the same held-back
    # entries are scored by value
    mat = np.loadtxt(_complete_input(tmp_path))
    mat[::3, 1::4] = -1.0
    dense, triplets = tmp_path / "m.txt", tmp_path / "m.trip"
    write_dense(dense, mat)
    _write_triplets(triplets, load_dense(dense))
    args = ["--sampling-rate", 0.4, "--omega", 0.3, "--seed", 0, "--seed", 1, "--rank", 2,
            "--max-outer", 5, "--bins", "0,0.5,1,5", "--cdf-points", 5]
    outs = []
    for src, kind in ((dense, "dense"), (triplets, "triplets")):
        out = tmp_path / kind
        assert run_cli("complete", "--input", src, "--input-format", kind, *args,
                       "--out-dir", out) == 0
        outs.append({k: v for k, v in _dir_bytes(out).items() if k != "plan.txt"})
    assert {"summary.csv", "complete_s1_w0.3.csv", "complete_s1_w0.3.cdf.re.csv"} <= set(outs[0])
    assert outs[0] == outs[1]


def test_complete_rejects_oversampling(tmp_path, capsys):
    mat = np.full((4, 4), 2.0)
    mat[0, 0] = -1.0  # one missing entry
    src = tmp_path / "m.txt"
    src.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in mat) + "\n")
    out = tmp_path / "res"
    code = run_cli(
        "complete", "--input", src, "--sampling-rate", 1.0, "--rank", 2,
        "--omega", 0.5, "--seed", 0, "--seed", 1, "--out-dir", out,
    )
    assert code == 1
    # one refusal for the plan and the file, not one failure per grid cell
    assert capsys.readouterr().err.splitlines() == [
        "error\tValueError\tsampling_rate 1.0 needs 16 training entries of a 4x4 matrix, "
        "but only 15 are observed"]
    assert not out.exists()


def test_split_size_counts_as_sample_mask():
    # (0.3 * 3) * 30 rounds to 26.99..., 0.3 * (3 * 30) to 27.0
    plan = ExperimentPlan("complete", sampling_rate=0.3, rank=3)
    assert emfkit.cli._train_count(plan, 3, 30, 90) == 27
    assert len(sample_mask(3, 30, 0.3, seed=0)) == 27


def test_evaluate_mode(tmp_path):
    truth = np.array([[1.0, 2.0], [4.0, 5.0]])
    est = truth * 1.1
    tp, ep = tmp_path / "t.txt", tmp_path / "e.txt"
    write_dense(tp, truth)
    write_dense(ep, est)
    out = tmp_path / "res"
    assert run_cli("evaluate", "--input", tp, "--estimate", ep, "--out-dir", out) == 0
    rows = read_results_csv(out / "evaluate.csv")
    med = [r["value"] for r in rows if r["metric"] == "re_median"][0]
    assert med == pytest.approx(0.1, abs=1e-12)


def test_evaluate_mode_rejects_truth_below_the_floor(tmp_path, capsys):
    tp, ep = tmp_path / "t.txt", tmp_path / "e.txt"
    write_dense(tp, np.array([[1.0, 2.0], [0.0, 5.0]]))
    write_dense(ep, np.ones((2, 2)))
    # a zero truth is refused at floor 0 too, not scored as an inf error
    for floor, why in ((), "below the floor 1e-12"), (("--eval-floor", 0), "zero"):
        out = tmp_path / f"res{len(floor)}"
        assert run_cli("evaluate", "--input", tp, "--estimate", ep, *floor,
                       "--out-dir", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error\tDenominatorTooSmallError\ttruth entry (1, 0) = 0.0 is {why}"]
        assert not (out / "evaluate.csv").exists()


def test_complete_and_evaluate_report_a_truth_below_the_floor_alike(tmp_path, capsys):
    # one entry below the floor, placed where seed 0's split holds it back
    src = _complete_input(tmp_path)
    mat = np.loadtxt(src) + 1.0
    obs, plan = load_dense(src), ExperimentPlan("complete", sampling_rate=0.4)
    rows, cols, _ = emfkit.cli._split_instance(obs, 480, plan, 0)[1]
    i, j = rows[0], cols[0]
    mat[i, j] = 0.25
    write_dense(src, mat)
    message = f"DenominatorTooSmallError: truth entry ({i}, {j}) = 0.25 is below the floor 0.5"
    out = tmp_path / "res"
    assert run_cli("complete", "--input", src, "--sampling-rate", 0.4, "--omega", 0.5,
                   "--seed", 0, "--rank", 2, "--max-outer", 3, "--eval-floor", 0.5,
                   "--out-dir", out) == 1
    assert (out / "failures.txt").read_text().startswith(f"complete_s0_w0.5\t{message}\n")
    capsys.readouterr()
    assert run_cli("evaluate", "--input", src, "--estimate", src, "--eval-floor", 0.5,
                   "--out-dir", tmp_path / "eval") == 1
    assert capsys.readouterr().err.splitlines() == ["error\t" + message.replace(": ", "\t", 1)]


@pytest.mark.parametrize("input_format", ["dense", "triplets"])
def test_complete_provider_holds_no_matrix_of_the_input_shape(tmp_path, monkeypatch,
                                                                input_format):
    # cells read only observed entries: after parsing, nothing of m x n is kept
    src = _complete_input(tmp_path)
    if input_format == "triplets":
        _write_triplets(src, load_dense(src))
    providers = []
    monkeypatch.setattr(emfkit.cli, "_run_grid",
                        lambda plan, name, provider: providers.append(provider) or 0)
    assert run_cli("complete", "--input", src, "--input-format", input_format,
                   "--out-dir", tmp_path / "res") == 0
    [provider] = providers
    held = list(provider.args) + list(provider.keywords.values())
    held += [v for obj in held if hasattr(obj, "__dict__") for v in vars(obj).values()]
    shapes = [a.shape for a in held if isinstance(a, np.ndarray)]
    assert shapes and (40, 30) not in shapes


def test_evaluate_and_expectile_read_the_input_format(tmp_path, capsys):
    # the observed values are 1.0 and 2.0; read as dense, the header is a row
    trip = tmp_path / "t.trip"
    trip.write_text("2 2\n0 0 1.0\n1 1 2.0\n")
    fmt = ["--input", trip, "--input-format", "triplets"]
    assert run_cli("expectile", *fmt, "--omega", 0.5) == 0
    assert capsys.readouterr().out == "omega\texpectile\n0.5\t1.5\n"
    est = tmp_path / "e.txt"
    write_dense(est, np.array([[1.1, 7.0], [7.0, 2.2]]))
    out = tmp_path / "res"
    assert run_cli("evaluate", *fmt, "--estimate", est, "--out-dir", out) == 0
    scores = {r["metric"]: r["value"] for r in read_results_csv(out / "evaluate.csv")}
    assert scores["re_count"] == 2 and scores["re_median"] == pytest.approx(0.1)


def test_evaluate_mode_estimate_spans_the_sentinel(tmp_path):
    # an estimate is a full matrix: its values may lie on both sides of -1
    tp, ep = tmp_path / "t.txt", tmp_path / "e.txt"
    write_dense(tp, np.array([[1.0, 2.0], [4.0, 5.0]]))
    write_dense(ep, np.array([[1.1, -2.0], [3.0, 0.5]]))
    out = tmp_path / "res"
    assert run_cli("evaluate", "--input", tp, "--estimate", ep, "--out-dir", out) == 0
    rows = read_results_csv(out / "evaluate.csv")
    med = [r["value"] for r in rows if r["metric"] == "re_median"][0]
    # errors 0.1, 2, 0.25, 0.9
    assert med == pytest.approx(0.575, abs=1e-12)


def test_evaluate_mode_negative_truth(tmp_path):
    truth = np.array([[-2.0, -4.0], [-8.0, -2.0]])
    est = truth / 2
    tp, ep = tmp_path / "t.txt", tmp_path / "e.txt"
    write_dense(tp, truth)
    write_dense(ep, est)
    out = tmp_path / "res"
    assert run_cli("evaluate", "--input", tp, "--estimate", ep, "--out-dir", out,
                   "--sentinel", 99) == 0
    rows = read_results_csv(out / "evaluate.csv")
    med = [r["value"] for r in rows if r["metric"] == "re_median"][0]
    assert med == pytest.approx(0.5, abs=1e-12)


def test_expectile_mode(tmp_path, capsys):
    vals = tmp_path / "v.txt"
    vals.write_text("0 -1 1\n")  # the sentinel -1 lies outside [0, 1]: dropped
    assert run_cli("expectile", "--input", vals, "--omega", 0.25, "--omega", 0.5) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "omega\texpectile"
    table = dict(ln.split("\t") for ln in lines[1:])
    assert float(table["0.25"]) == pytest.approx(0.25)
    assert float(table["0.5"]) == pytest.approx(0.5)


def test_expectile_mode_one_value(tmp_path, capsys):
    vals = tmp_path / "v.txt"
    vals.write_text("3.0\n")
    assert run_cli("expectile", "--input", vals, "--omega", "0.1,0.5,0.9") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["omega\texpectile", "0.1\t3.0", "0.5\t3.0", "0.9\t3.0"]


@pytest.mark.parametrize("text, message", [
    ("1 2\n3 abc 5\n", "line 2, column 2: cannot parse 'abc' as a real number"),
    ("1\n\n2 inf\n", "line 3, column 2: non-finite value 'inf'"),
], ids=["unparseable", "non-finite"])
def test_expectile_mode_bad_token(tmp_path, capsys, text, message):
    vals = tmp_path / "v.txt"
    vals.write_text(text)
    assert run_cli("expectile", "--input", vals, "--omega", 0.5) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error\tMatrixParseError\t{message}"]


def test_expectile_mode_ragged_lines(tmp_path, capsys):
    vals = tmp_path / "v.txt"
    vals.write_text("0\n1 0 1\n\n")
    assert run_cli("expectile", "--input", vals, "--omega", 0.5) == 0
    assert capsys.readouterr().out == "omega\texpectile\n0.5\t0.5\n"



@pytest.mark.parametrize("text", ["-2 -1 0\n", "-1 -1\n-1 -1\n", "\n \n"],
                         ids=["sentinel-in-range", "all-sentinel", "empty"])
def test_expectile_mode_refuses_what_load_dense_refuses(tmp_path, capsys, text):
    vals = tmp_path / "v.txt"
    vals.write_text(text)
    with pytest.raises(ValueError) as refused:
        load_dense(vals)
    assert run_cli("expectile", "--input", vals, "--omega", 0.5) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error\t{type(refused.value).__name__}\t{refused.value}"]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(
        "# smoke plan\n"
        "m = 30\nn = 30\nk_true = 2\nrank = 2\n"
        "sampling-rate = 0.4\nnoise_scale = 0.1\ndof = 3\n"
        "omega = 0.2, 0.6\nseed = 2\nmax_outer = 20\ncdf_points = 5\n"
    )
    out = tmp_path / "res"
    assert run_cli("synth-exp", "--config", cfg, "--out-dir", out, "--omega", 0.4) == 0
    rows = read_results_csv(out / "summary.csv")
    omegas = {r["omega"] for r in rows}
    assert omegas == {"0.4"}  # flag overrides the file's omega list
    plan = (out / "plan.txt").read_text()
    assert "m = 30" in plan and "k_true = 2" in plan


def test_plan_records_numeric_environment(tmp_path):
    import scipy

    out = tmp_path / "res"
    assert run_cli("synth-exp", "--m", 20, "--n", 20, "--k-true", 2, "--rank", 2,
                   "--sampling-rate", 0.5, "--omega", 0.5, "--seed", 1,
                   "--max-outer", 3, "--cdf-points", 5, "--out-dir", out) == 0
    lines = (out / "plan.txt").read_text().splitlines()
    plan = dict(line.split(" = ", 1) for line in lines)
    assert lines[0].startswith("toolkit_version = ")
    assert plan["numpy_version"] == np.__version__
    assert plan["scipy_version"] == scipy.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert plan["blas"].split()[0] == blas["name"]
    assert int(plan["usable_cores"]) >= 1
    assert plan["omega"] == "0.5"


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    out = tmp_path / "res"
    for key in ("bogus", "use_qr"):
        cfg.write_text(f"{key} = yes\n")
        # a tiny grid, should the key be accepted
        args = ["--m", 6, "--n", 6, "--k-true", 1, "--rank", 1, "--omega", 0.5, "--seed", 0]
        assert run_cli("synth-exp", "--config", cfg, "--out-dir", out, *args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("error") and f"unknown option {key!r}" in err[-1]
        assert not out.exists()


def test_invalid_omega_rejected(tmp_path):
    assert run_cli("synth-exp", "--omega", 1.5, "--out-dir", tmp_path / "x") == 1


@pytest.mark.parametrize("mode, flag, value, message", [
    ("complete", "--sampling-rate", "nan", "sampling_rate must be in (0, 1], got nan"),
    ("complete", "--sampling-rate", "1.5", "sampling_rate must be in (0, 1], got 1.5"),
    ("evaluate", "--eval-floor", "nan", "eval_floor must be >= 0, got nan"),
    ("evaluate", "--cdf-max", "nan", "cdf_max must be > 0, got nan"),
    ("evaluate", "--cdf-points", "0", "cdf_points must be >= 1, got 0"),
    ("complete", "--bins", "3,1", "bins: boundaries must be finite and strictly increasing"),
    ("complete", "--format", "xml", "format must be csv or json, got 'xml'"),
    ("synth-exp", "--rank", "0", "rank must be >= 1, got 0"),
    ("synth-exp", "--k-true", "0", "k_true must be >= 1, got 0"),
    ("synth-exp", "--m", "0", "m must be >= 1, got 0"),
    ("synth-exp", "--n", "-3", "n must be >= 1, got -3"),
    ("synth-exp", "--dof", "0", "dof must be >= 1, got 0"),
    ("synth-exp", "--max-outer", "-1", "max_outer must be >= 0, got -1"),
    ("synth-exp", "--noise-scale", "nan", "noise_scale must be >= 0, got nan"),
    ("synth-exp", "--tol-obj", "nan", "tol_obj must be >= 0, got nan"),
    ("complete", "--tol-grad", "nan", "tol_grad must be >= 0, got nan"),
    ("complete", "--ridge", "nan", "ridge must be >= 0, got nan"),
    ("complete", "--ridge", "inf", "ridge must be finite, got inf"),
    ("synth-exp", "--noise-scale", "inf", "noise_scale must be finite, got inf"),
    ("synth-exp", "--tol-obj", "inf", "tol_obj must be finite, got inf"),
    ("complete", "--tol-grad", "inf", "tol_grad must be finite, got inf"),
    ("evaluate", "--eval-floor", "inf", "eval_floor must be finite, got inf"),
    ("synth-exp", "--cdf-max", "inf", "cdf_max must be finite, got inf"),
    ("evaluate", "--cdf-max", "inf", "cdf_max must be finite, got inf"),
    ("complete", "--sentinel", "nan", "sentinel must be finite, got nan"),
    ("evaluate", "--sentinel", "inf", "sentinel must be finite, got inf"),
    ("complete", "--workers", "0", "workers must be >= 1, got 0"),
    ("synth-exp", "--seed", "-1", "seed values must be >= 0, got -1"),
    ("complete", "--seed", "-2", "seed values must be >= 0, got -2"),
    ("synth-exp", "--m", "1", "rank must be <= min(m, n) = 1, got 2"),
    ("synth-exp", "--k-true", "1001", "k_true must be <= min(m, n) = 1000, got 1001"),
    ("synth-exp", "--sampling-rate", "1",
     "sampling_rate 1.0 leaves no held-out entry of a 1000x1000 matrix"),
    ("synth-exp", "--sampling-rate", "1e-7",
     "sampling_rate 1e-07 selects no training entry of a 1000x1000 matrix"),
    ("synth-exp", "--omega", "0.1234561,0.1234562", "two grid cells share the run id suffix "
     "s0_w0.123456: seeds must differ, and omegas in their first 6 significant digits"),
    ("complete", "--seed", "0", "two grid cells share the run id suffix s0_w0.5: seeds must "
     "differ, and omegas in their first 6 significant digits"),
    ("complete", "--omega", "0.5", "two grid cells share the run id suffix s0_w0.5: seeds must "
     "differ, and omegas in their first 6 significant digits"),
    # the input, read and checked once before anything is written
    ("complete", "--sampling-rate", "0.0005",
     "sampling_rate 0.0005 selects no training entry of a 40x30 matrix"),
    ("complete", "--input", "HOLES",
     "sampling_rate 0.1 needs 120 training entries of a 40x30 matrix, but only 100 are observed"),
    ("complete", "--sampling-rate", "1",
     "sampling_rate 1.0 leaves no held-out entry of a 40x30 matrix"),
    ("complete", "--rank", "31", "rank must be <= min(m, n) = 30, got 31"),
    ("complete", "--input", "BAD",
     "MatrixParseError\tline 2, column 2: cannot parse 'x' as a real number"),
    ("evaluate", "--input-format", "triplets",
     "MatrixParseError\tline 1: header must be 'm n', got ['1.0', '2.0']"),
    ("evaluate", "--estimate", "WIDE", "estimate shape (2, 3) != truth shape (2, 2)"),
])
def test_invalid_plan_value_stops_before_writing(tmp_path, capsys, mode, flag, value, message):
    src = _complete_input(tmp_path)
    files = {"HOLES": tmp_path / "holes.txt", "BAD": tmp_path / "bad.txt",
             "WIDE": tmp_path / "wide.txt"}
    keep = np.zeros((40, 30), dtype=bool)
    keep.flat[:100] = True
    write_dense(files["HOLES"], np.ones((40, 30)), keep)
    files["BAD"].write_text("1 2\n3 x\n")
    write_dense(files["WIDE"], np.ones((2, 3)))
    value = files.get(value, value)
    args = ["--input", src, "--omega", 0.5, "--seed", 0, "--rank", 2, "--max-outer", 2]
    if mode == "evaluate":
        # a zero truth entry: a NaN floor used to let it through as an inf error
        truth = np.array([[1.0, 2.0], [0.0, 5.0]])
        write_dense(src, truth)
        est = tmp_path / "e.txt"
        write_dense(est, truth + 0.5)
        args = ["--input", src, "--estimate", est]
    out = tmp_path / "res"
    assert run_cli(mode, *args, flag, value, "--out-dir", out) == 1
    err = capsys.readouterr().err.strip().splitlines()
    kind = "" if "\t" in message else "ValueError\t"  # a parse error names its own type
    assert err == [f"error\t{kind}{message}"]
    assert not out.exists()


@pytest.mark.parametrize("mode, key, by_config", [
    ("synth-exp", "seed", True),
    ("synth-exp", "seed", False),
    ("complete", "seed", False),
    ("synth-exp", "omega", True),
    ("complete", "omega", False),
])
def test_empty_grid_list_stops_before_writing(tmp_path, capsys, mode, key, by_config):
    # the invalid-plan cases above always pass one omega and one seed
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(f"{key} =\n")
    given = ["--config", cfg] if by_config else ["--" + key, ""]
    out = tmp_path / "res"
    assert run_cli(mode, "--input", _complete_input(tmp_path), *given, "--out-dir", out) == 1
    assert capsys.readouterr().err.splitlines() == [f"error\tValueError\tneed at least one {key}"]
    assert not out.exists()


@pytest.mark.parametrize("mode, absent", [
    ("complete", "--input"),
    ("evaluate", "--input"),
    ("evaluate", "--estimate"),
    ("expectile", "--input"),
])
def test_absent_input_file_stops_before_writing(tmp_path, capsys, mode, absent):
    src, nope = _complete_input(tmp_path), tmp_path / "nope.txt"
    files = {"--input": src, "--estimate": src} if mode == "evaluate" else {"--input": src}
    files[absent] = nope
    out = tmp_path / "res"
    argv = [a for flag_path in files.items() for a in flag_path]
    assert run_cli(mode, *argv, "--omega", 0.5, "--seed", 0, "--out-dir", out) == 1
    # the reader's open refuses it, with Python's message
    assert capsys.readouterr().err.splitlines() == [
        f"error\tFileNotFoundError\t[Errno 2] No such file or directory: {str(nope)!r}"]
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode, flags, message", [
    ("synth-exp", ["--config", "CFG"], "CFG:2: expected 'key = value', got 'rank 3'"),
    ("complete", ["--sampling-rate", 0.0005],
     "sampling_rate 0.0005 selects no training entry of a 40x30 matrix"),
    ("complete", ["--sampling-rate", 1],
     "sampling_rate 1.0 leaves no held-out entry of a 40x30 matrix"),
    ("evaluate", ["--estimate", "WIDE"], "estimate shape (40, 31) != truth shape (40, 30)"),
    # a subnormal truth entry, whose relative error overflows
    ("evaluate", ["--input", "TINY", "--estimate", "TINY_EST", "--eval-floor", 0],
     "truth entry (1, 0) = 1e-310 is too small"),
    # a ridge whose term overflows fails its grid cell, which failures.txt names
    ("synth-exp", ["--m", 30, "--n", 30, "--k-true", 2, "--sampling-rate", 0.5,
                   "--max-outer", 3, "--ridge", 1e308], "ridge 1e+308"),
], ids=["config line", "empty split", "no held-back", "estimate shape", "tiny truth",
        "huge ridge"])
def test_cli_refusals_name_their_cause(tmp_path, capsys, mode, flags, message):
    # a RuntimeWarning on the way would be raised, and named, in place of the cause
    src = _complete_input(tmp_path)
    (tmp_path / "plan.cfg").write_text("omega = 0.5\nrank 3\n")
    write_dense(tmp_path / "wide.txt", np.ones((40, 31)))
    (tmp_path / "tiny.txt").write_text("1.0 2.0\n1e-310 5.0\n")
    write_dense(tmp_path / "tiny-est.txt", np.array([[1.5, 2.5], [0.5, 5.5]]))
    names = {"CFG": str(tmp_path / "plan.cfg"), "WIDE": str(tmp_path / "wide.txt"),
             "TINY": str(tmp_path / "tiny.txt"), "TINY_EST": str(tmp_path / "tiny-est.txt")}
    flags = [names.get(f, f) for f in flags]
    message = message.replace("CFG", names["CFG"])
    out = tmp_path / "res"
    assert run_cli(mode, "--input", src, "--omega", 0.5, "--seed", 0, "--rank", 2, *flags,
                   "--out-dir", out) == 1
    assert message in capsys.readouterr().err
    # only a failed fit or scoring writes failures.txt
    failures = out / "failures.txt"
    assert failures.exists() == (message == "ridge 1e+308")
    assert not failures.exists() or message in failures.read_text()


@pytest.mark.parametrize("mode, given, message", [
    ("complete", [], "complete needs --input"),
    ("evaluate", [], "evaluate needs --input and --estimate"),
    ("evaluate", ["--input"], "evaluate needs --estimate"),
    ("evaluate", ["--estimate"], "evaluate needs --input"),
    ("expectile", [], "expectile needs --input"),
])
def test_missing_input_file_stops_before_writing(tmp_path, capsys, mode, given, message):
    src = _complete_input(tmp_path)
    out = tmp_path / "res"
    files = [a for flag in given for a in (flag, src)]
    assert run_cli(mode, *files, "--omega", 0.5, "--seed", 0, "--out-dir", out) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error\tValueError\t{message}"]
    assert not out.exists()


def test_config_input_format_typo_fails(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"input = {_complete_input(tmp_path)}\ninput_format = triplet\n")
    out = tmp_path / "res"
    assert run_cli("complete", "--config", cfg, "--out-dir", out) == 1
    assert not out.exists()


def _non_default_text(field):
    """Valid flag/config text for a plan field that differs from its default."""
    special = {"format": "json", "input_format": "triplets", "omega": "0.2,0.6"}
    by_type = {"tuple[int, ...]": "7,8", "tuple[float, ...]": "0.75,2.5",
               "int": "17", "float": "0.7"}  # annotations are strings
    return special.get(field.name) or by_type.get(field.type, "elsewhere")


def _plan(*argv):
    return _resolve_plan(build_parser().parse_args([str(a) for a in argv]))


@pytest.mark.parametrize("mode", ["synth-exp", "complete", "evaluate", "expectile"])
def test_every_plan_field_is_a_flag_and_a_config_key(tmp_path, mode):
    default = ExperimentPlan(mode=mode)
    assert _plan(mode) == default
    for field in dataclasses.fields(ExperimentPlan):
        if field.name == "mode":
            continue
        text = _non_default_text(field)
        flag = "--" + field.name.replace("_", "-")
        by_flag = _plan(mode, flag, text)
        cfg = tmp_path / f"{field.name}.cfg"
        cfg.write_text(f"{field.name} = {text}\n")
        by_config = _plan(mode, "--config", cfg)
        assert by_flag == by_config, field.name
        assert getattr(by_flag, field.name) != getattr(default, field.name), field.name
        assert by_flag == dataclasses.replace(default, **{field.name: getattr(by_flag, field.name)})

    # tuple fields: repeats and comma lists are the same plan
    assert _plan(mode, "--omega", 0.2, "--omega", 0.6) == _plan(mode, "--omega", "0.2,0.6")
    bins = _plan(mode, "--bins", "0,0.3", "--bins", "3.1,20")
    assert bins.bins == (0.0, 0.3, 3.1, 20.0) and isinstance(bins.bins[0], float)
    assert _plan(mode, "--seed", 3, "--seed", "4,5").seed == (3, 4, 5)
