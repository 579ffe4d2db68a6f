"""emfkit benchmark: closed-loop workloads, end-to-end or per-layer metrics.

Usage, from the repository root::

    python3 bench/run.py --workload c3_skewed --seed 0 --seconds 20 --trace 0

One process runs one workload in a closed loop.  After an untimed warm-up
on a tiny version of the workload, it repeats set-up, job and output checks,
one after the other, while one more repetition as long as the last still
ends within ``--seconds`` (at least the workload's ``min_reps``).  Each
repetition draws its inputs from a seed derived from ``--seed``.  Then it
sets up the first seed again and reruns its job to check that the output is
bit-identical, and sets up further seeds alone until there are the
workload's ``min_setups`` set-up samples.

``--trace 0`` reports the end-to-end metrics (medians over the run);
``--trace 1`` wraps the package's functions (see ``tracing.py``), runs each
seed once traced and once untraced, reports per-layer metrics per traced
repetition and the tracing overhead, and writes every span to
``bench/out/``.  Earlier lines of standard output describe the
machine, the samples and the drift against the previous recorded run; the
last line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
# traced/untraced pairs in a traced run, at least
MIN_PAIRS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "final_objective": "loss", "est_err": "ratio",
}


def instance_seed(seed: int, rep: int) -> int:
    """Seed of repetition `rep`; repetition 0 uses the run's seed itself."""
    return seed + rep * 1_000_003


def bootstrap() -> int:
    """Pin BLAS threads to the cores this process may use and put the
    checkout's ``src/`` first on the import path.  Returns the core count."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import emfkit

    if Path(emfkit.__file__).resolve().parent != ROOT / "src" / "emfkit":
        raise ImportError(f"emfkit imported from {emfkit.__file__}, not from {src}")
    return nproc


class RssPeak:
    """Highest resident set size seen while the block runs, sampled every 10 ms.

    The process-wide high-water mark would report set-up's peak instead,
    which is larger than the fit's on c3_skewed.
    """

    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._page_mb = os.sysconf("SC_PAGE_SIZE") / 1e6

    def _sample(self):
        with open("/proc/self/statm") as fh:
            self.peak_mb = max(self.peak_mb, int(fh.read().split()[1]) * self._page_mb)

    def _loop(self):
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()
        return False


def tail_percentile(samples):
    """The highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    return {"pct": round(100.0 * (n - 10) / n, 1), "value": sorted(samples)[n - 11], "n": n}


def prepared(wl, inputs):
    """The inputs after the workload's untimed ``prepare``, if it has one."""
    return wl.prepare(inputs) if hasattr(wl, "prepare") else inputs


def measure(wl, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run workload `wl` for `seconds` and return samples, counts and the tracer.

    Untraced, repetition `r` fits seed ``instance_seed(seed, r)``.  Traced,
    pair `r` runs that seed once traced and once untraced, in alternating
    order, for the tracing overhead; the per-layer metrics come from the
    traced halves only.
    """
    from tracing import Tracer

    tracer = Tracer() if trace else None
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": [], "final_objective": [], "est_err": []}
    pair_walls: dict[int, dict[bool, float]] = {}
    attempted = failed = 0
    errors = []

    def phase(*tag):
        if tracer is not None:
            tracer.phase = tag

    def attempt(fn, *args):
        nonlocal attempted, failed
        attempted += 1
        try:
            return fn(*args)
        except Exception:
            failed += 1
            errors.append(traceback.format_exc())
            return None

    def timed_setup(s, setup_phase):
        # observation sets and their cached transposes form reference
        # cycles; free the previous inputs before the next ones exist
        gc.collect()
        phase(*setup_phase)
        t0 = time.perf_counter()
        inputs = wl.setup(s, workdir)
        samples["setup_s"].append(time.perf_counter() - t0)
        # benchmark-side input preparation: untimed, and its spans are in
        # a phase the per-layer metrics leave out
        phase("prepare")
        return prepared(wl, inputs)

    def timed_job(inputs):
        with RssPeak() as rss:
            t0 = time.perf_counter()
            out = wl.job(inputs)
            wall = time.perf_counter() - t0
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(rss.peak_mb)
        return out, wall

    def repetition(rep):
        inputs = timed_setup(instance_seed(seed, rep), ("setup", rep))
        phase("job", rep)
        out, wall = timed_job(inputs)
        phase("check", rep)
        objective, est_err = wl.check(inputs, out)
        samples["final_objective"].append(objective)
        samples["est_err"].append(est_err)
        pair_walls.setdefault(rep, {})[tracer is not None and tracer.installed] = wall
        return out

    def untraced_repetition(rep):
        tracer.uninstall()
        try:
            return repetition(rep)
        finally:
            tracer.install()

    def pair(rep):
        # alternate which half runs first, so a warm cache or a drift of
        # the machine does not bias the overhead one way
        halves = (repetition, untraced_repetition)
        a, b = halves if rep % 2 == 0 else halves[::-1]
        out = attempt(a, rep)
        attempt(b, rep)
        return out

    def same_again(first_out):
        # a workload whose job is too long to run twice supplies a shorter
        # repeat_job; otherwise the repeat is one more timed job
        repeat_job = getattr(wl, "repeat_job", lambda inputs: timed_job(inputs)[0])
        previous = first_out
        for _ in range(wl.repeats):
            inputs = timed_setup(seed, ("repeat",))
            phase("repeat")
            out = repeat_job(inputs)
            wl.same(previous, out)
            previous = out

    def warm_up():
        tiny = type(wl)(**wl.TINY)
        inputs = prepared(tiny, tiny.setup(seed, workdir))
        tiny.check(inputs, tiny.job(inputs))

    with tracer if tracer is not None else nullcontext():
        phase("warmup")
        attempt(warm_up)
        # another repetition starts only if one as long as the last still
        # ends within `seconds`; a traced run makes at least MIN_PAIRS pairs
        min_reps = MIN_PAIRS if trace else wl.min_reps
        start = time.perf_counter()
        rep = 0
        while True:
            rep_start = time.perf_counter()
            out = pair(rep) if trace else attempt(repetition, rep)
            if rep == 0:
                first = out
            rep += 1
            now = time.perf_counter()
            if rep >= min_reps and 2 * now - rep_start - start > seconds:
                break
        if first is not None:
            attempt(same_again, first)
        if not trace:
            # set-up is short next to the job; more samples steady its median
            for topup in range(rep, rep + wl.min_setups - len(samples["setup_s"])):
                attempt(timed_setup, instance_seed(seed, topup), ("topup",))

    shutil.rmtree(workdir, ignore_errors=True)
    overhead = [w[True] - w[False] for w in pair_walls.values() if len(w) == 2]
    return {
        "samples": samples, "attempted": attempted, "failed": failed, "errors": errors,
        "reps": rep, "tracer": tracer,
        "overhead_s": statistics.median(overhead) if overhead else None,
    }


def machine(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sources = [p.read_bytes() for p in sorted((ROOT / "src").rglob("*.py"))]
    return {
        "nproc": nproc,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": sum(len(b.splitlines()) for b in sources),
        "src_hash": hashlib.sha256(b"".join(sources)).hexdigest()[:16],
    }


def untraced_history(history: Path, workload: str) -> list[dict]:
    if not history.exists():
        return []
    records = [json.loads(line) for line in history.read_text().splitlines() if line.strip()]
    return [r for r in records if r["workload"] == workload and not r["trace"]]


def drift(record: dict, earlier: list[dict]) -> dict | None:
    """final_objective and est_err against the previous untraced run of the
    workload, preferring one with the same seed, whatever its code."""
    if not earlier:
        return None
    prev = ([r for r in earlier if r["seed"] == record["seed"]] or earlier)[-1]
    return {
        "against_seed": prev["seed"],
        "same_code": prev.get("src_hash") == record["src_hash"],
        **{
            key: {"previous": prev[key], "relative": (record[key] - prev[key]) / prev[key]}
            for key in ("final_objective", "est_err")
            if prev.get(key) and record.get(key) is not None
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    nproc = bootstrap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    info = machine(nproc)
    print("machine " + json.dumps(info))

    OUT.mkdir(exist_ok=True)
    run = measure(wl, args.seed, args.seconds, bool(args.trace), OUT / f"work-{os.getpid()}")
    for err in run["errors"]:
        print(err, file=sys.stderr)
    samples = run["samples"]
    medians = {k: statistics.median(v) for k, v in samples.items() if v}
    print("samples " + json.dumps({
        "reps": run["reps"], **{k: len(v) for k, v in samples.items()},
        "failed_fraction": run["failed"] / run["attempted"],
    }))
    history = OUT / "history.jsonl"
    earlier = untraced_history(history, wl.name)
    record = {
        "workload": wl.name, "seed": args.seed, "trace": bool(args.trace), "time": time.time(),
        "src_lines": info["src_lines"], "src_hash": info["src_hash"], **{k: medians.get(k) for k in END_TO_END_UNITS},
        "wall_samples": samples["wall_s"],
    }
    # the tail pools untraced runs of this code only
    pooled = [
        w for r in earlier + ([] if args.trace else [record])
        if r.get("src_hash") == info["src_hash"] for w in r["wall_samples"]
    ]
    print("wall_s " + json.dumps({
        "median": medians.get("wall_s"), "n": len(samples["wall_s"]), "samples": samples["wall_s"],
        "tail": tail_percentile(samples["wall_s"]), "tail_over_history": tail_percentile(pooled),
    }))
    print("drift " + json.dumps(drift(record, earlier)))
    with open(history, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    if args.trace:
        tracer = run["tracer"]
        if tracer.missing:
            print("untraced (not found): " + ", ".join(tracer.missing), file=sys.stderr)
        tracer.dump(OUT / f"spans-{wl.name}-s{args.seed}.tsv")
        layers = tracer.layer_metrics({"setup", "job"}, max(run["reps"], 1))
        layers["trace.overhead_s"] = (run["overhead_s"] or 0.0, "s")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        metrics = {
            name: {"value": medians[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items() if name in medians
        }
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
