import numpy as np
import pytest

from emfkit.cli import main
from emfkit.io import read_results_csv, write_dense
from emfkit.synth import gen_low_rank


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


def test_synth_workers_match_serial(tmp_path):
    base = [
        "synth-exp", "--m", 30, "--n", 30, "--k-true", 2, "--rank", 2,
        "--sampling-rate", 0.4, "--noise-scale", 0.1, "--dof", 3,
        "--omega", 0.3, "--omega", 0.7, "--seed", 0, "--seed", 1,
        "--max-outer", 25, "--cdf-points", 5,
    ]
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert run_cli(*base, "--out-dir", serial, "--workers", 1) == 0
    assert run_cli(*base, "--out-dir", parallel, "--workers", 2) == 0
    a = {k: v for k, v in _dir_bytes(serial).items() if k != "plan.txt"}
    b = {k: v for k, v in _dir_bytes(parallel).items() if k != "plan.txt"}
    assert a == b


def test_complete_mode_end_to_end(tmp_path):
    f = gen_low_rank(40, 30, 2, seed=11)
    mat = f.x @ f.y.T + 0.05
    src = tmp_path / "matrix.txt"
    write_dense(src, mat)
    out = tmp_path / "res"
    code = run_cli(
        "complete", "--input", src, "--sampling-rate", 0.4,
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


def test_complete_rejects_oversampling(tmp_path):
    mat = np.full((4, 4), 2.0)
    mat[0, 0] = -1.0  # one missing entry
    src = tmp_path / "m.txt"
    src.write_text("\n".join(" ".join(repr(v) for v in row) for row in mat) + "\n")
    out = tmp_path / "res"
    code = run_cli(
        "complete", "--input", src, "--sampling-rate", 1.0,
        "--omega", 0.5, "--seed", 0, "--out-dir", out,
    )
    assert code == 1
    assert (out / "failures.txt").exists()


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
    vals.write_text("0 1\n")
    assert run_cli("expectile", "--input", vals, "--omega", 0.25, "--omega", 0.5) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "omega\texpectile"
    table = dict(ln.split("\t") for ln in lines[1:])
    assert float(table["0.25"]) == pytest.approx(0.25)
    assert float(table["0.5"]) == pytest.approx(0.5)


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


def test_unknown_config_key_fails(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert run_cli("synth-exp", "--config", cfg) == 1


def test_invalid_omega_rejected(tmp_path):
    assert run_cli("synth-exp", "--omega", 1.5, "--out-dir", tmp_path / "x") == 1
