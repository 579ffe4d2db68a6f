"""Batch experiment harness.

Subcommands: ``synth-exp`` (synthetic completion grid), ``complete``
(subsample-and-recover a matrix file), ``evaluate`` (score an estimate file
against a truth file), ``expectile`` (1-D expectile table).  Plans can come
from flags, from a ``key = value`` config file (``--config``), or both;
flags win.  Grid cells (seed x omega) are independent and can run in a
bounded process pool (``--workers``); outputs are deterministic either way.
Every row a run writes is built here; :mod:`emfkit.io` only formats files.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import math
import sys
import textwrap
import traceback
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, subsolver
from .core import EmfConfig, EntryObservations, product_at_entries
from .emf import fit
from .io import (export_results, load_dense, load_triplets, load_values, read_dense,
                 results_csv)
from .loss import scalar_expectile
from .metrics import (BinSpec, ErrorSummary, binned_summaries, empirical_cdf,
                      relative_errors_at, summarize)
from .rng import Pcg32
from .synth import SPLIT_STREAM, make_completion_instance

@dataclass(frozen=True)
class ExperimentPlan:
    """Fully resolved plan for one subcommand invocation.

    Every field but ``mode`` is both a ``--kebab-case`` flag of each
    subcommand and a key of the ``--config`` file; the annotation gives the
    value's type, and a tuple field takes repeats and comma lists.
    """

    mode: str
    omega: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9)
    seed: tuple[int, ...] = (0, 1, 2, 3, 4)
    rank: int = 10
    sampling_rate: float = 0.1
    max_outer: int = 100
    tol_obj: float = 1e-10
    tol_grad: float = 1e-8
    ridge: float = 0.0
    workers: int = 1
    out_dir: str = "results"
    format: str = "csv"
    m: int = 1000
    n: int = 1000
    k_true: int = 10
    noise_scale: float = 0.5
    dof: int = 3
    cdf_max: float = 1.0
    cdf_points: int = 201
    input: str | None = None
    estimate: str | None = None
    sentinel: float = -1.0
    input_format: str = "dense"
    bins: tuple[float, ...] = (0.0, 0.3, 3.1, 20.0)
    eval_floor: float = 1e-12

    def __post_init__(self):
        for key in ("omega", "seed"):
            if not getattr(self, key):
                raise ValueError(f"need at least one {key}")
        for w in self.omega:
            if not 0.0 < w < 1.0:
                raise ValueError(f"omega values must be in (0, 1), got {w}")
        if min(self.seed) < 0:
            raise ValueError(f"seed values must be >= 0, got {min(self.seed)}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.input_format not in ("dense", "triplets"):
            raise ValueError(f"input_format must be dense or triplets, got {self.input_format!r}")
        # "not value >= bound" also rejects NaN
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValueError(f"sampling_rate must be in (0, 1], got {self.sampling_rate}")
        for key, low in (("rank", 1), ("k_true", 1), ("m", 1), ("n", 1), ("dof", 1),
                         ("workers", 1), ("max_outer", 0), ("noise_scale", 0), ("tol_obj", 0),
                         ("tol_grad", 0), ("ridge", 0), ("eval_floor", 0), ("cdf_points", 1)):
            value = getattr(self, key)
            if not value >= low:
                raise ValueError(f"{key} must be >= {low}, got {value}")
        if self.mode == "synth-exp":
            for key in ("rank", "k_true"):
                if getattr(self, key) > min(self.m, self.n):
                    raise ValueError(f"{key} must be <= min(m, n) = {min(self.m, self.n)}, "
                                     f"got {getattr(self, key)}")
            train = int(self.sampling_rate * (self.m * self.n))  # as synth.sample_mask counts
            if train == 0:
                raise ValueError(f"sampling_rate {self.sampling_rate} selects no training entry "
                                 f"of a {self.m}x{self.n} matrix")
            if train == self.m * self.n:
                raise ValueError(f"sampling_rate {self.sampling_rate} leaves no held-out entry "
                                 f"of a {self.m}x{self.n} matrix")
        cells = [_cell_id(s, w) for s in self.seed for w in self.omega]
        if self.mode in ("synth-exp", "complete") and len(set(cells)) < len(cells):
            dup = next(c for c in cells if cells.count(c) > 1)
            raise ValueError(f"two grid cells share the run id suffix {dup}: seeds must "
                             "differ, and omegas in their first 6 significant digits")
        if not self.cdf_max > 0:
            raise ValueError(f"cdf_max must be > 0, got {self.cdf_max}")
        # +inf passes the bounds above
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        try:
            BinSpec(np.asarray(self.bins))
        except ValueError as exc:
            raise ValueError(f"bins: {exc}") from None

    def emf_config(self, omega: float, seed: int) -> EmfConfig:
        return EmfConfig(
            omega=omega,
            rank=self.rank,
            max_outer=self.max_outer,
            tol_objective=self.tol_obj,
            tol_gradient=self.tol_grad,
            ridge=self.ridge,
            seed=seed,
        )


def _cell_id(seed: int, omega: float) -> str:
    """The seed-and-omega suffix of a grid cell's run id (and file names)."""
    return f"s{seed}_w{omega:g}"


_HINTS = typing.get_type_hints(ExperimentPlan)
_KEYS = tuple(f.name for f in fields(ExperimentPlan) if f.name != "mode")


def _parse_config_file(path: str) -> dict:
    """Read ``key = value`` lines; '#' starts a comment; lists are comma-separated."""
    values = {}
    for no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{no}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _KEYS:
            raise ValueError(f"{path}:{no}: unknown option {key!r}")
        values[key] = _coerce(key, text.strip())
    return values


def _coerce(key: str, text: str):
    """Read ``text`` as a value of plan field ``key``, typed by its annotation."""
    hint = _HINTS[key]
    if typing.get_origin(hint) is tuple:
        kind = typing.get_args(hint)[0]
        return tuple(kind(t) for t in text.replace(",", " ").split())
    kind = next((t for t in typing.get_args(hint) if t is not type(None)), hint)
    return kind(text)


def _flag_type(key: str):
    def parse(text: str):
        return _coerce(key, text)

    parse.__name__ = key  # argparse names it in "invalid <key> value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emfkit",
        description="Expectile matrix factorization experiment harness.",
    )
    parser.add_argument("--version", action="version", version=f"emfkit {__version__}")
    subs = parser.add_subparsers(dest="mode", required=True)
    for mode, text in (
        ("synth-exp", "synthetic low-rank + skewed-noise completion grid"),
        ("complete", "subsample a matrix file and recover it"),
        ("evaluate", "score an estimate file against a truth file"),
        ("expectile", "1-D expectiles of a numeric file"),
    ):
        sub = subs.add_parser(mode, help=text)
        sub.add_argument("--config", help="key = value plan file; flags override it")
        for key in _KEYS:
            flag = "--" + key.replace("_", "-")
            if typing.get_origin(_HINTS[key]) is tuple:
                sub.add_argument(flag, dest=key, action="append", type=_flag_type(key),
                                 help="repeatable; each value may be a comma list")
            else:
                sub.add_argument(flag, dest=key, type=_flag_type(key))
    return parser


def _resolve_plan(args: argparse.Namespace) -> ExperimentPlan:
    effective = _parse_config_file(args.config) if args.config else {}
    for key in _KEYS:
        given = getattr(args, key)
        if given is not None:
            effective[key] = sum(given, ()) if isinstance(given, list) else given
    return ExperimentPlan(mode=args.mode, **effective)


def _write_provenance(plan: ExperimentPlan) -> None:
    """Write plan.txt: the toolkit version, the numeric environment (numpy,
    scipy, the BLAS numpy was built with, usable cores), then the plan."""
    out = Path(plan.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = [
        f"toolkit_version = {__version__}",
        f"numpy_version = {np.__version__}",
        f"scipy_version = {importlib.metadata.version('scipy')}",
        f"blas = {blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        f"usable_cores = {subsolver.usable_cores()}",
    ]
    for key, value in sorted(asdict(plan).items()):
        if isinstance(value, tuple):
            value = ", ".join(repr(v) for v in value)
        lines.append(f"{key} = {value}")
    (out / "plan.txt").write_text("\n".join(lines) + "\n")


def _quartile_rows(s: ErrorSummary, label: str) -> list:
    return [(f"re_{key}", label, getattr(s, key)) for key in ("median", "q1", "q3", "iqr")]


def _metric_rows_for(errors: np.ndarray) -> list:
    s = summarize(errors)
    return _quartile_rows(s, "") + [("re_mean", "", float(errors.mean())),
                                    ("re_count", "", float(s.count))]


def _binned_rows(errors: np.ndarray, values: np.ndarray, bins: BinSpec) -> list:
    rows = []
    for entry in binned_summaries(errors, values, bins):
        label = "overflow" if entry.lower is None else f"{entry.lower:g}-{entry.upper:g}"
        rows.append(("bin_count", label, float(entry.count)))
        rows.append(("bin_fraction", label, entry.count / errors.size))  # a cell holds back entries
        if entry.summary is not None:
            s = entry.summary
            rows += _quartile_rows(s, label) + [("re_min", label, s.minimum),
                                                ("re_max", label, s.maximum)]
    return rows


def _report_rows(report) -> list:
    """The fit's rows: its objective trace, ``converged``, a ``stop_reason``
    row (value 1) whose bin is the :class:`StopReason` name,
    ``uncertified_solves`` and ``outer_iterations``."""
    rows = [("objective_trace", str(t), float(v)) for t, v in enumerate(report.objective_trace)]
    return rows + [("converged", "", 1.0 if report.converged else 0.0),
                   ("stop_reason", report.stop_reason.name, 1.0),
                   ("uncertified_solves", "", float(report.uncertified_solves)),
                   ("outer_iterations", "", float(len(report.objective_trace) - 1))]


def _export(plan: ExperimentPlan, report, errors: np.ndarray, extra_rows: list,
            run_id: str, omega: float, seed: int) -> list:
    """Write one run's metric rows (summary, then ``extra_rows``), the rows of
    its fit ``report`` if any, and its error CDF; return the metric rows."""
    rows = _metric_rows_for(errors) + extra_rows
    grid = np.linspace(0.0, plan.cdf_max, plan.cdf_points)
    export_results(
        Path(plan.out_dir) / f"{run_id}.{plan.format}", plan.format,
        (run_id, omega, plan.rank, plan.sampling_rate, seed),
        rows + (_report_rows(report) if report is not None else []),
        (grid, empirical_cdf(errors, grid)),
    )
    return rows


def _synth_instance(plan: ExperimentPlan, seed: int):
    """Instance provider of ``synth-exp``: a fresh synthetic instance per seed,
    scored on its held-out entries against the clean truth."""
    inst = make_completion_instance(
        plan.m, plan.n, plan.k_true, plan.noise_scale, plan.dof, plan.sampling_rate, seed
    )
    rows, cols = inst.heldout[:, 0], inst.heldout[:, 1]
    return inst.observed, (rows, cols, inst.truth[rows, cols]), False


def _split_instance(obs: EntryObservations, plan: ExperimentPlan, seed: int):
    """Instance provider of ``complete``: the seeded train split of the observed
    entries of a parsed file, scored on the held-back ones with value bins."""
    train_count = int(plan.sampling_rate * obs.shape[0] * obs.shape[1])
    if train_count > obs.size:
        raise ValueError(
            f"sampling rate {plan.sampling_rate} needs {train_count} entries but the "
            f"file provides only {obs.size} observed ones"
        )
    if train_count < 1:
        raise ValueError(f"sampling rate {plan.sampling_rate} selects no entries")
    picked = Pcg32(seed, SPLIT_STREAM).permutation_prefix(obs.size, train_count)
    train_sel = np.zeros(obs.size, dtype=bool)
    train_sel[picked] = True
    train, held = ((obs.row_idx[s], obs.col_idx[s], obs.values[s])
                   for s in (train_sel, ~train_sel))
    if held[0].size == 0:
        raise ValueError("no held-back entries left to evaluate on")
    return EntryObservations(obs.shape, *train), held, True


def _run_cell(plan: ExperimentPlan, name: str, provider, seed: int, omega: float) -> dict:
    """Fit and export one grid cell; a failure is reported, not fatal to the grid.

    ``provider(plan, seed)`` gives the train set, the held-out entries as
    aligned (rows, cols, truth values), and whether to add value-bin rows.
    """
    run_id = f"{name}_{_cell_id(seed, omega)}"
    try:
        train, (rows, cols, truth), binned = provider(plan, seed)
        report = fit(train, plan.emf_config(omega, seed))
        estimate = product_at_entries(report.factors, rows, cols)
        errors = relative_errors_at(rows, cols, truth, estimate, plan.eval_floor)
        extra = _binned_rows(errors, truth, BinSpec(np.asarray(plan.bins))) if binned else []
        exported = _export(plan, report, errors, extra, run_id, omega, seed)
        return {"run_id": run_id, "seed": seed, "omega": omega, "rows": exported, "error": None}
    except Exception as exc:
        return {
            "run_id": run_id, "seed": seed, "omega": omega, "rows": [],
            "error": f"{type(exc).__name__}: {exc}",
            "trace": traceback.format_exc(),
        }


# The instance provider of the grid a pool worker serves.  The pool
# initializer sets it once per worker process, so the provider (for
# ``complete``, the whole parsed input) is not sent again with every cell.
_worker_provider = None


def _set_worker_provider(provider) -> None:
    global _worker_provider
    _worker_provider = provider
    # the grid's workers already use the cores: each solves its rounds serially
    subsolver.ROUND_THREADS = 1


def _run_worker_cell(plan: ExperimentPlan, name: str, seed: int, omega: float) -> dict:
    return _run_cell(plan, name, _worker_provider, seed, omega)


def _run_grid(plan: ExperimentPlan, name: str, provider) -> int:
    """Run every (seed, omega) cell, optionally in a process pool; ``provider``
    is handed to each worker once, so it must pickle."""
    cells = [(s, w) for s in plan.seed for w in plan.omega]
    if plan.workers > 1:
        # a forking pool starts every worker at once: no more than there are cells
        with ProcessPoolExecutor(max_workers=min(plan.workers, len(cells)),
                                 initializer=_set_worker_provider, initargs=(provider,)) as pool:
            results = list(pool.map(partial(_run_worker_cell, plan, name), *zip(*cells)))
    else:
        results = [_run_cell(plan, name, provider, s, w) for s, w in cells]
    results.sort(key=lambda r: (r["seed"], r["omega"]))

    out = Path(plan.out_dir)
    failures = [res for res in results if res["error"] is not None]
    (out / "summary.csv").write_text(results_csv(
        ((res["run_id"], res["omega"], plan.rank, plan.sampling_rate, res["seed"]), res["rows"])
        for res in results if res["error"] is None
    ))

    if failures:
        # one unindented "run_id<TAB>error" line per failed cell, its traceback indented below
        manifest = [
            f"{res['run_id']}\t{res['error']}\n" + textwrap.indent(res["trace"], "    ")
            for res in failures
        ]
        (out / "failures.txt").write_text("".join(manifest))
        for res in failures:
            print(f"error\t{res['run_id']}\t{res['error']}", file=sys.stderr)
        return 1
    return 0


def _run_complete(plan: ExperimentPlan) -> int:
    if plan.input_format == "triplets":
        obs = load_triplets(plan.input)
    else:
        obs = load_dense(plan.input, plan.sentinel)
    return _run_grid(plan, "complete", partial(_split_instance, obs))


def _run_evaluate(plan: ExperimentPlan) -> int:
    obs = load_dense(plan.input, plan.sentinel)
    # a full matrix: no holes, so it may span the sentinel
    est = read_dense(plan.estimate)
    if est.shape != obs.shape:
        raise ValueError(f"estimate shape {est.shape} != truth shape {obs.shape}")
    rows, cols = obs.row_idx, obs.col_idx
    errors = relative_errors_at(rows, cols, obs.values, est[rows, cols], plan.eval_floor)
    _export(plan, None, errors, [], "evaluate", plan.omega[0], plan.seed[0])
    return 0


def _run_expectile(plan: ExperimentPlan) -> int:
    values = load_values(plan.input, plan.sentinel)
    table = [f"{w:g}\t{scalar_expectile(values, w)!r}" for w in plan.omega]
    print("omega\texpectile", *table, sep="\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        plan = _resolve_plan(args)
        # the files a mode reads, checked before anything is written
        needed = {"synth-exp": (), "evaluate": ("input", "estimate")}.get(plan.mode, ("input",))
        missing = [f"--{key}" for key in needed if getattr(plan, key) is None]
        if missing:
            raise ValueError(f"{plan.mode} needs {' and '.join(missing)}")
        for path in (getattr(plan, key) for key in needed):
            if not Path(path).is_file():
                raise FileNotFoundError(f"no such file: {path}")
        if plan.mode == "expectile":
            return _run_expectile(plan)
        _write_provenance(plan)
        if plan.mode == "evaluate":
            return _run_evaluate(plan)
        if plan.mode == "complete":
            return _run_complete(plan)
        return _run_grid(plan, "synth", _synth_instance)
    except Exception as exc:
        print(f"error\t{type(exc).__name__}\t{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
