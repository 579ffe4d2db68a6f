"""The benchmark's workloads: inputs from a seed, one timed job, output checks.

Every input comes from ``emfkit.synth`` / ``emfkit.rng`` given the seed.
Package functions are looked up through their modules at call time
(``emfkit.emf.fit``, not a name bound at import), so the tracer's wrappers
see the calls.

A workload provides:

* ``setup(seed, workdir)``: build the inputs, including a newly built
  observation set, so the job pays for the lazily cached ``transposed`` view
  the way a user does;
* ``job(inputs)``: the timed call;
* ``prepare(inputs)``, optional: the benchmark's own untimed work on the
  inputs, whose spans the per-layer metrics leave out; returns the inputs;
* ``check(inputs, output)``: raise :class:`CheckFailed` on a wrong output,
  else return ``(final_objective, est_err)``;
* ``min_reps``: repetitions a run makes at least, whatever ``--seconds``;
* ``min_setups``: set-up samples an untraced run takes at least; set-ups
  alone top up the repetitions' own;
* ``same(a, b)``: the determinism check; the runner sets up the first seed
  again ``repeats`` times, runs the job (or ``repeat_job``, where defined)
  on each and compares each output with the one before;
* ``TINY``: constructor arguments for a version that runs in well under a
  second, used for the warm-up before timing and by the smoke test.  Its
  instances are too small to recover well, so its error ceiling only
  rejects a broken output.
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import emfkit.cli
import emfkit.core
import emfkit.emf
import emfkit.io
import emfkit.metrics
import emfkit.rng
import emfkit.synth

# Allowed rise of the outer objective between sweeps, relative.  The inner
# solver accepts a round when each row's objective grows by at most 1e-13
# relative; over the rounds of a sweep plus summation rounding that stays
# far below this.
TRACE_SLACK = 1e-9

# Pcg32 stream of the rt_complete missing-entry pattern; emfkit.synth uses
# streams 1-5 and the SVD initialization stream 11.
MISSING_STREAM = 21


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check_descent(trace) -> None:
    trace = np.asarray(trace, dtype=np.float64)
    rise = trace[1:] - trace[:-1] * (1.0 + TRACE_SLACK)
    if (rise > 0).any():
        t = int(np.argmax(rise > 0))
        raise CheckFailed(f"objective rose at sweep {t + 1}: {trace[t]!r} -> {trace[t + 1]!r}")


def check_ceiling(est_err: float, ceiling: float) -> None:
    if not est_err <= ceiling:
        raise CheckFailed(f"est_err {est_err!r} is above the ceiling {ceiling!r}")


def same_fit(a: emfkit.core.SolveReport, b: emfkit.core.SolveReport) -> None:
    """Bit-identical objective traces (over the shorter one) and, for equally
    long fits, bit-identical factors."""
    n = min(a.objective_trace.size, b.objective_trace.size)
    if not np.array_equal(a.objective_trace[:n], b.objective_trace[:n]):
        raise CheckFailed("two fits with the same seed have different objective traces")
    if a.objective_trace.size == b.objective_trace.size:
        fa, fb = a.factors, b.factors
        if not (np.array_equal(fa.x, fb.x) and np.array_equal(fa.y, fb.y)):
            raise CheckFailed("two fits with the same seed have different factors")


@dataclass(frozen=True)
class C3Skewed:
    """The acceptance-C3 completion instance, fitted at omega = 0.1."""

    m: int = 1000
    n: int = 1000
    k: int = 10
    rate: float = 0.1
    max_outer: int = 40
    ceiling: float = 0.5
    name = "c3_skewed"
    # one 20 s fit is a single sample of a machine whose speed drifts by a
    # fifth from minute to minute; the median of two is steadier
    min_reps = 2
    min_setups = 8
    # The repeat fits stop after one sweep: a second 40-sweep fit would
    # double the run.  Two of them are compared with each other (factors)
    # and the first with the timed fit (objective trace prefix).
    repeats = 2
    TINY = dict(m=60, n=60, k=3, rate=0.3, max_outer=3, ceiling=10.0)

    def setup(self, seed: int, workdir: Path):
        inst = emfkit.synth.make_completion_instance(
            self.m, self.n, self.k, noise_scale=0.5, dof=3, rate=self.rate, seed=seed
        )
        return inst, seed

    def _fit(self, inputs, max_outer: int):
        inst, seed = inputs
        config = emfkit.core.EmfConfig(
            omega=0.1, rank=self.k, max_outer=max_outer, tol_objective=1e-7, seed=seed
        )
        return emfkit.emf.fit(inst.observed, config)

    def job(self, inputs):
        return self._fit(inputs, self.max_outer)

    def repeat_job(self, inputs):
        return self._fit(inputs, 1)

    def check(self, inputs, report):
        inst, _ = inputs
        check_descent(report.objective_trace)
        errors = emfkit.metrics.relative_errors(inst.truth, report.factors, inst.heldout)
        est_err = float(np.median(errors))
        check_ceiling(est_err, self.ceiling)
        return float(report.objective_trace[-1]), est_err

    same = staticmethod(same_fit)


@dataclass(frozen=True)
class GaussMeasure:
    """A low-rank truth seen through dense Gaussian measurements."""

    m: int = 60
    n: int = 60
    k: int = 3
    p: int = 2500
    max_outer: int = 40
    ceiling: float = 0.05
    name = "gauss_measure"
    min_reps = 1
    min_setups = 8
    repeats = 1
    TINY = dict(m=8, n=8, k=2, p=200, ceiling=10.0)

    def setup(self, seed: int, workdir: Path):
        f = emfkit.synth.gen_low_rank(self.m, self.n, self.k, seed)
        truth = f.x @ f.y.T
        measurements = emfkit.synth.gaussian_measurements(self.m, self.n, self.p, seed)
        noise = emfkit.synth.chi_square_noise(self.p, 1, 3, 0.5, seed).ravel()
        obs = emfkit.synth.apply_measurements(measurements, truth, noise)
        return obs, truth, seed

    def job(self, inputs):
        obs, _, seed = inputs
        config = emfkit.core.EmfConfig(
            omega=0.25, rank=self.k, max_outer=self.max_outer, tol_objective=1e-9, seed=seed
        )
        return emfkit.emf.fit(obs, config)

    def check(self, inputs, report):
        _, truth, _ = inputs
        check_descent(report.objective_trace)
        estimate = report.factors.x @ report.factors.y.T
        est_err = float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))
        check_ceiling(est_err, self.ceiling)
        return float(report.objective_trace[-1]), est_err

    same = staticmethod(same_fit)


@dataclass(frozen=True)
class RtInputs:
    path: Path
    out_dir: Path
    keep: np.ndarray  # which entries the file holds
    seed: int  # the CLI's --seed


@dataclass(frozen=True)
class RtComplete:
    """``emfkit complete`` on a response-time-shaped dense file."""

    m: int = 339
    n: int = 5825
    k: int = 10
    max_outer: int = 5
    ceiling: float = 0.4
    name = "rt_complete"
    min_reps = 1
    # each set-up writes a 33 MB file in about 4 s
    min_setups = 4
    repeats = 1
    TINY = dict(m=120, n=200, k=3, max_outer=2, ceiling=10.0)
    SAMPLING_RATE = 0.1

    def setup(self, seed: int, workdir: Path) -> RtInputs:
        """Low rank plus 0.5 chi^2_3 noise; column j misses a U(0, 0.2) share."""
        f = emfkit.synth.gen_low_rank(self.m, self.n, self.k, seed)
        values = f.x @ f.y.T + emfkit.synth.chi_square_noise(self.m, self.n, 3, 0.5, seed)
        g = emfkit.rng.Pcg32(seed, MISSING_STREAM)
        col_rate = 0.2 * g.uniform(self.n)
        keep = g.uniform(self.m * self.n).reshape(self.m, self.n) >= col_rate
        path = workdir / f"rt_{seed}.txt"
        emfkit.io.write_dense(path, values, keep)
        out_dir = Path(tempfile.mkdtemp(prefix=f"rt_{seed}.", dir=workdir))
        return RtInputs(path, out_dir, keep, seed)

    def prepare(self, inputs: RtInputs) -> RtInputs:
        """Move the CLI seed to the first one from `inputs.seed` on whose
        train split every column keeps at least rank entries.

        With ridge 0 the solver rejects a column seen fewer than rank times,
        by design.  At these flags about one split in 400 leaves such a
        column; the loop repeats the CLI's split (``Pcg32(seed,
        SPLIT_STREAM).permutation_prefix`` over the observed entries in
        row-major order) to skip those splits.
        """
        seed = inputs.seed
        cols = np.nonzero(inputs.keep.ravel())[0] % self.n
        train = int(self.SAMPLING_RATE * self.m * self.n)
        for candidate in range(seed, seed + 100):
            split = emfkit.rng.Pcg32(candidate, emfkit.synth.SPLIT_STREAM)
            picked = split.permutation_prefix(cols.size, train)
            if np.bincount(cols[picked], minlength=self.n).min() >= self.k:
                return dataclasses.replace(inputs, seed=candidate)
        raise CheckFailed(f"no feasible train split among CLI seeds {seed}..{seed + 99}")

    def job(self, inputs: RtInputs) -> Path:
        rc = emfkit.cli.main([
            "complete", "--input", str(inputs.path), "--omega", "0.5",
            "--rank", str(self.k), "--sampling-rate", str(self.SAMPLING_RATE),
            "--max-outer", str(self.max_outer), "--tol-obj", "1e-7", "--workers", "1",
            "--seed", str(inputs.seed), "--out-dir", str(inputs.out_dir),
        ])
        if rc != 0:
            raise CheckFailed(f"emfkit complete exited with {rc}")
        return inputs.out_dir

    def _result_file(self, out_dir: Path) -> Path:
        return next(out_dir.glob("complete_s*_w0.5.csv"))

    def check(self, inputs: RtInputs, out_dir: Path):
        if (out_dir / "failures.txt").exists():
            raise CheckFailed("emfkit complete wrote failures.txt")
        summary = emfkit.io.read_results_csv(out_dir / "summary.csv")
        if not any(r["metric"] == "re_median" for r in summary):
            raise CheckFailed("summary.csv has no re_median row")
        rows = emfkit.io.read_results_csv(self._result_file(out_dir))
        trace = sorted((int(r["bin"]), r["value"]) for r in rows if r["metric"] == "objective_trace")
        if not trace:
            raise CheckFailed("no objective_trace rows exported")
        check_descent([v for _, v in trace])
        medians = [r["value"] for r in rows if r["metric"] == "re_median" and r["bin"] == ""]
        if len(medians) != 1:
            raise CheckFailed("expected one overall re_median row")
        check_ceiling(medians[0], self.ceiling)
        return trace[-1][1], medians[0]

    def same(self, a: Path, b: Path) -> None:
        for name in ("summary.csv", self._result_file(a).name):
            if (a / name).read_bytes() != (b / name).read_bytes():
                raise CheckFailed(f"two runs with the same seed wrote different {name}")


WORKLOADS = {w.name: w for w in (C3Skewed, RtComplete, GaussMeasure)}
