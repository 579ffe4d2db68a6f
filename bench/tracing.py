"""Span tracing from outside the package, and the per-layer metrics built on it.

Wrappers are installed on the names that callers look up at call time:
``from .x import y`` binds ``y`` in the importing module, so ``fit`` calls
``emfkit.emf.solve_y``, the CLI calls ``emfkit.cli.fit``, and so on.  Class
methods (``EntryObservations.__init__``, ``Pcg32.permutation_prefix``) are
wrapped on the class.  Each call records a span: name, layer, start, end,
parent span and the phase of the repetition it belongs to.  Spans stay in
memory until the run ends.

A layer's time is the duration of its outermost spans (a span whose parent
belongs to another layer); its self time is each span's duration minus the
time covered by its child spans, summed over the layer.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

import numpy as np

import emfkit.cli
import emfkit.core
import emfkit.emf
import emfkit.io
import emfkit.metrics
import emfkit.rng
import emfkit.subsolver
import emfkit.synth

LAYERS = ("core", "rng", "synth", "loss", "subsolver", "emf", "metrics", "io", "cli")
_STREAMS = ("Pcg32.uniform", "Pcg32.normal", "Pcg32.uint32_array")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    phase: tuple = ()
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _path_mb(args, kwargs, result) -> dict:
    path = kwargs.get("path", args[0] if args else None)
    try:
        return {"mb": os.path.getsize(path) / 1e6}
    except (OSError, TypeError):
        return {}


class Tracer:
    """Records spans for calls into emfkit while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase: tuple = ()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._last_pattern: dict[tuple, np.ndarray] = {}

    # -- recording -------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, layer, 0.0, parent=parent, phase=self.phase)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                span.attrs.update(on_result(args, kwargs, result))
            return result

        return traced

    def _solve_attrs(self, args, kwargs, result) -> dict:
        obs = kwargs.get("obs", args[1] if len(args) > 1 else None)
        pattern = np.asarray(result.sign_pattern)
        # observation sets live for one phase, so their ids cannot be reused
        # within it; the side of a solve is the observation set it was given
        side = (self.phase, id(obs))
        prev = self._last_pattern.get(side)
        flips = int(np.count_nonzero(prev != pattern)) if prev is not None else 0
        self._last_pattern[side] = pattern
        return {
            "rounds": int(result.inner_iterations),
            "obs": int(obs.size),
            "flips": flips,
            "uncertified": 0 if result.converged else 1,
        }

    @staticmethod
    def _fit_attrs(args, kwargs, result) -> dict:
        return {"sweeps": len(result.objective_trace) - 1}

    def _targets(self):
        """(owner, attribute, layer, span name, result hook) for every wrapped name."""
        core, emf, cli, io, metrics = emfkit.core, emfkit.emf, emfkit.cli, emfkit.io, emfkit.metrics
        synth, rng = emfkit.synth, emfkit.rng.Pcg32
        out = [
            (core.EntryObservations, "__init__", "core", "EntryObservations.__init__", None),
            (core.GeneralObservations, "__init__", "core", "GeneralObservations.__init__", None),
            (rng, "permutation_prefix", "rng", "Pcg32.permutation_prefix", None),
            (rng, "uniform", "rng", "Pcg32.uniform", None),
            (rng, "normal", "rng", "Pcg32.normal", None),
            (rng, "uint32_array", "rng", "Pcg32.uint32_array", None),
            (emf, "solve_y", "subsolver", "solve_y", self._solve_attrs),
            (emf, "svd_init", "emf", "svd_init", None),
            (emf, "fit", "emf", "fit", self._fit_attrs),
            (cli, "fit", "emf", "fit", self._fit_attrs),
            (emf, "objective", "loss", "objective", None),
            (emf, "gradient_y", "loss", "gradient_y", None),
            (emfkit.subsolver, "gradient_y", "loss", "gradient_y", None),
            (cli, "load_dense", "io", "load_dense", _path_mb),
            (cli, "export_results", "io", "export_results", None),
            (io, "write_dense", "io", "write_dense", _path_mb),
            (cli, "main", "cli", "main", None),
            (cli, "_run_complete_cell", "cli", "complete_cell", None),
        ]
        for fn in ("relative_errors", "summarize", "empirical_cdf", "binned_summaries"):
            out.append((cli, fn, "metrics", fn, None))
            out.append((metrics, fn, "metrics", fn, None))
        for fn in ("make_completion_instance", "gen_low_rank", "chi_square_noise",
                   "sample_mask", "gaussian_measurements", "apply_measurements"):
            out.append((synth, fn, "synth", fn, None))
        return out

    def install(self):
        self.missing = []
        for owner, attr, layer, name, hook in self._targets():
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, name, original, hook))
        return self

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ----------------------------------------------------------
    def layer_metrics(self, phases, reps: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the spans whose phase kind is in `phases`.

        Times and counts are means per repetition; ratios are taken over all
        selected spans.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        picked = [(s, s.duration - covered[i]) for i, s in enumerate(self.spans) if s.phase and s.phase[0] in phases]
        spans = [s for s, _ in picked]

        def outer(s: Span) -> bool:
            return s.parent is None or self.spans[s.parent].layer != s.layer

        def total(pred) -> float:
            return sum(s.duration for s in spans if pred(s))

        def self_of(pred) -> float:
            return sum(own for s, own in picked if pred(s))

        def count(pred) -> float:
            return float(sum(1 for s in spans if pred(s)))

        def attr(name, key) -> float:
            return float(sum(s.attrs.get(key, 0) for s in spans if s.name == name))

        def ratio(num, den) -> float:
            return num / den if den > 0 else 0.0

        solve_s = total(lambda s: s.name == "solve_y")
        rounds = attr("solve_y", "rounds")
        solves = count(lambda s: s.name == "solve_y")
        load_s = total(lambda s: s.name == "load_dense")
        write_s = total(lambda s: s.name == "write_dense")
        obs_rounds = sum(s.attrs["obs"] * s.attrs["rounds"] for s in spans if s.name == "solve_y")

        per_rep = {
            "subsolver.solve_s": (solve_s, "s"),
            "subsolver.self_s": (self_of(lambda s: s.layer == "subsolver"), "s"),
            "subsolver.solves": (solves, "count"),
            "subsolver.inner_rounds": (rounds, "count"),
            "subsolver.sign_flips": (attr("solve_y", "flips"), "count"),
            "subsolver.uncertified": (attr("solve_y", "uncertified"), "count"),
            "emf.fit_s": (total(lambda s: s.name == "fit"), "s"),
            # the outer loop's own work; svd_init has a metric of its own
            "emf.self_s": (self_of(lambda s: s.name == "fit"), "s"),
            "emf.svd_init_s": (total(lambda s: s.name == "svd_init"), "s"),
            "emf.sweeps": (attr("fit", "sweeps"), "count"),
            "loss.objective_s": (total(lambda s: s.name == "objective" and outer(s)), "s"),
            "loss.gradient_s": (total(lambda s: s.name == "gradient_y" and outer(s)), "s"),
            "loss.calls": (count(lambda s: s.layer == "loss"), "count"),
            "core.obs_build_s": (total(lambda s: s.layer == "core" and outer(s)), "s"),
            "core.obs_builds": (count(lambda s: s.layer == "core"), "count"),
            "rng.permutation_prefix_s": (total(lambda s: s.name == "Pcg32.permutation_prefix"), "s"),
            "rng.stream_s": (total(lambda s: s.name in _STREAMS and outer(s)), "s"),
            "synth.self_s": (self_of(lambda s: s.layer == "synth"), "s"),
            "io.load_s": (load_s, "s"),
            "io.export_s": (total(lambda s: s.name == "export_results"), "s"),
            "io.write_s": (write_s, "s"),
            "metrics.score_s": (total(lambda s: s.layer == "metrics" and outer(s)), "s"),
            "cli.cell_s": (total(lambda s: s.name == "complete_cell"), "s"),
            "cli.self_s": (self_of(lambda s: s.layer == "cli"), "s"),
        }
        out = {name: (value / reps, unit) for name, (value, unit) in per_rep.items()}
        out.update({
            "subsolver.rounds_per_solve": (ratio(rounds, solves), "ratio"),
            "subsolver.round_s": (ratio(solve_s, rounds), "s"),
            "subsolver.obs_rounds_per_s": (ratio(obs_rounds, solve_s), "1/s"),
            "io.load_mb_per_s": (ratio(attr("load_dense", "mb"), load_s), "MB/s"),
            "io.write_mb_per_s": (ratio(attr("write_dense", "mb"), write_s), "MB/s"),
        })
        return out

    def dump(self, path) -> None:
        """Write every span as one tab-separated line."""
        lines = ["index\tname\tlayer\tphase\tparent\tstart\tend\tattrs"]
        t0 = self.spans[0].start if self.spans else 0.0
        for i, s in enumerate(self.spans):
            phase = ":".join(map(str, s.phase))
            lines.append(
                f"{i}\t{s.name}\t{s.layer}\t{phase}\t{'' if s.parent is None else s.parent}\t"
                f"{s.start - t0:.6f}\t{s.end - t0:.6f}\t{s.attrs}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
