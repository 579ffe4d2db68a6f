"""Smoke test of the benchmark itself, on the tiny version of each workload.

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.bootstrap()
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(name, **changes):
    cls = workloads.WORKLOADS[name]
    return dataclasses.replace(cls(**cls.TINY), **changes)


def _run_tiny(monkeypatch, capsys, tmp_path, name, trace, wl):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, name, lambda: wl)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def test_spec_names_every_workload_and_layer():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert {name.split(".")[0] for name in per_layer} >= set(tracing.LAYERS)
    for w in SPEC["workloads"]:
        moves = w["why"].split("Moves: ", 1)[1].split(", ")
        assert set(moves) <= per_layer, w["name"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(monkeypatch, capsys, tmp_path, name, trace):
    _, result = _run_tiny(monkeypatch, capsys, tmp_path, name, trace, _tiny(name))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_failed_check_counts_in_failed_fraction(monkeypatch, capsys, tmp_path):
    wl = _tiny("gauss_measure", ceiling=0.0)
    lines, result = _run_tiny(monkeypatch, capsys, tmp_path, "gauss_measure", 0, wl)
    samples = json.loads(next(ln for ln in lines if ln.startswith("samples "))[len("samples "):])
    assert result["failed"] == 1 and not result["correct"]
    assert samples["failed_fraction"] == 1 / result["attempted"]


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail_percentile(list(range(10))) is None
    tail = run.tail_percentile(list(range(20)))
    assert tail == {"pct": 50.0, "value": 9, "n": 20}


def test_traced_run_pairs_seeds_and_leaves_out_prepare(tmp_path):
    wl = _tiny("rt_complete")
    # on seed 37 the tiny file's own CLI split leaves a column short, so the
    # warm-up, too, must move to a feasible CLI seed
    got = run.measure(wl, 37, 0.0, True, tmp_path / "work")
    assert got["failed"] == 0 and got["reps"] == run.MIN_PAIRS
    # each seed ran traced and untraced
    assert len(got["samples"]["wall_s"]) == 2 * run.MIN_PAIRS + wl.repeats
    assert got["overhead_s"] is not None
    phases = [s.phase[0] for s in got["tracer"].spans if s.name == "Pcg32.permutation_prefix"]
    # the benchmark's split search runs in "prepare"; the CLI's split once per traced job
    assert "prepare" in phases
    assert phases.count("job") == run.MIN_PAIRS and "setup" not in phases


def test_untraced_run_tops_up_setup_samples(tmp_path):
    wl = _tiny("gauss_measure")
    got = run.measure(wl, 3, 0.0, False, tmp_path / "work")
    assert got["failed"] == 0 and len(got["samples"]["setup_s"]) == wl.min_setups
