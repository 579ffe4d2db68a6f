"""Batch experiment harness.

Subcommands: ``synth-exp`` (synthetic completion grid), ``complete``
(subsample-and-recover a matrix file), ``evaluate`` (score an estimate file
against a truth file), ``expectile`` (1-D expectile table).  Plans can come
from flags, from a ``key = value`` config file (``--config``), or both;
flags win.  Grid cells (seed x omega) are independent and can run in a
bounded process pool (``--workers``); outputs are deterministic either way.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import EmfConfig, EntryObservations
from .emf import fit
from .io import MatrixFileSpec, export_results, load_dense, load_triplets
from .loss import scalar_expectile
from .metrics import BinSpec, binned_summaries, empirical_cdf, relative_errors, summarize
from .rng import Pcg32
from .synth import SPLIT_STREAM, make_completion_instance

# option name -> (kind, default); kinds: int, float, str, bool, ints, floats
_OPTIONS: dict[str, tuple[str, object]] = {
    "omega": ("floats", (0.1, 0.25, 0.5, 0.75, 0.9)),
    "seed": ("ints", (0, 1, 2, 3, 4)),
    "rank": ("int", 10),
    "sampling_rate": ("float", 0.1),
    "max_outer": ("int", 100),
    "tol_obj": ("float", 1e-10),
    "tol_grad": ("float", 1e-8),
    "ridge": ("float", 0.0),
    "use_qr": ("bool", False),
    "workers": ("int", 1),
    "out_dir": ("str", "results"),
    "format": ("str", "csv"),
    "m": ("int", 1000),
    "n": ("int", 1000),
    "k_true": ("int", 10),
    "noise_scale": ("float", 0.5),
    "dof": ("int", 3),
    "cdf_max": ("float", 1.0),
    "cdf_points": ("int", 201),
    "input": ("str", None),
    "estimate": ("str", None),
    "sentinel": ("float", -1.0),
    "input_format": ("str", "dense"),
    "bins": ("floats", (0.0, 0.3, 3.1, 20.0)),
    "eval_floor": ("float", 1e-12),
}


@dataclass(frozen=True)
class ExperimentPlan:
    """Fully resolved plan for one subcommand invocation."""

    mode: str
    omega: tuple[float, ...]
    seed: tuple[int, ...]
    rank: int
    sampling_rate: float
    max_outer: int
    tol_obj: float
    tol_grad: float
    ridge: float
    use_qr: bool
    workers: int
    out_dir: str
    format: str
    m: int
    n: int
    k_true: int
    noise_scale: float
    dof: int
    cdf_max: float
    cdf_points: int
    input: str | None
    estimate: str | None
    sentinel: float
    input_format: str
    bins: tuple[float, ...]
    eval_floor: float

    def __post_init__(self):
        if not self.omega:
            raise ValueError("need at least one omega")
        for w in self.omega:
            if not 0.0 < w < 1.0:
                raise ValueError(f"omega values must be in (0, 1), got {w}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def emf_config(self, omega: float, seed: int) -> EmfConfig:
        return EmfConfig(
            omega=omega,
            rank=self.rank,
            max_outer=self.max_outer,
            tol_objective=self.tol_obj,
            tol_gradient=self.tol_grad,
            ridge=self.ridge,
            use_qr=self.use_qr,
            seed=seed,
            eval_denominator_floor=self.eval_floor,
        )


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
        if key not in _OPTIONS:
            raise ValueError(f"{path}:{no}: unknown option {key!r}")
        values[key] = _coerce(key, text.strip())
    return values


def _coerce(key: str, text: str):
    kind, _ = _OPTIONS[key]
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "str":
        return text
    if kind == "bool":
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse {text!r} as a boolean for {key!r}")
    parts = [t for t in text.replace(",", " ").split() if t]
    if kind == "ints":
        return tuple(int(t) for t in parts)
    return tuple(float(t) for t in parts)


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="key = value plan file; flags override it")
    sub.add_argument("--omega", action="append", type=float, help="expectile level (repeatable)")
    sub.add_argument("--seed", action="append", type=int, help="experiment seed (repeatable)")
    sub.add_argument("--rank", type=int)
    sub.add_argument("--sampling-rate", type=float, dest="sampling_rate")
    sub.add_argument("--max-outer", type=int, dest="max_outer")
    sub.add_argument("--tol-obj", type=float, dest="tol_obj")
    sub.add_argument("--tol-grad", type=float, dest="tol_grad")
    sub.add_argument("--ridge", type=float)
    sub.add_argument("--use-qr", action=argparse.BooleanOptionalAction, dest="use_qr", default=None)
    sub.add_argument("--workers", type=int)
    sub.add_argument("--out-dir", dest="out_dir")
    sub.add_argument("--format", choices=("csv", "json"))
    sub.add_argument("--input")
    sub.add_argument("--estimate")
    sub.add_argument("--sentinel", type=float)
    sub.add_argument("--input-format", choices=("dense", "triplets"), dest="input_format")
    sub.add_argument("--bins", type=str, help="comma-separated bin boundaries")
    sub.add_argument("--eval-floor", type=float, dest="eval_floor")
    sub.add_argument("--cdf-max", type=float, dest="cdf_max")
    sub.add_argument("--cdf-points", type=int, dest="cdf_points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emfkit",
        description="Expectile matrix factorization experiment harness.",
    )
    parser.add_argument("--version", action="version", version=f"emfkit {__version__}")
    subs = parser.add_subparsers(dest="mode", required=True)

    synth = subs.add_parser("synth-exp", help="synthetic low-rank + skewed-noise completion grid")
    _add_common(synth)
    synth.add_argument("--m", type=int)
    synth.add_argument("--n", type=int)
    synth.add_argument("--k-true", type=int, dest="k_true")
    synth.add_argument("--noise-scale", type=float, dest="noise_scale")
    synth.add_argument("--dof", type=int)

    complete = subs.add_parser("complete", help="subsample a matrix file and recover it")
    _add_common(complete)

    evaluate = subs.add_parser("evaluate", help="score an estimate file against a truth file")
    _add_common(evaluate)

    expectile = subs.add_parser("expectile", help="1-D expectiles of a numeric file")
    _add_common(expectile)
    return parser


def _resolve_plan(args: argparse.Namespace) -> ExperimentPlan:
    effective = {key: default for key, (_, default) in _OPTIONS.items()}
    if getattr(args, "config", None):
        effective.update(_parse_config_file(args.config))
    for key in _OPTIONS:
        given = getattr(args, key, None)
        if given is not None:
            if key == "bins" and isinstance(given, str):
                given = _coerce("bins", given)
            elif key in ("omega", "seed"):
                given = tuple(given)
            effective[key] = given
    return ExperimentPlan(mode=args.mode, **effective)


def _write_provenance(plan: ExperimentPlan) -> None:
    out = Path(plan.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"toolkit_version = {__version__}"]
    for key, value in sorted(asdict(plan).items()):
        if isinstance(value, tuple):
            value = ", ".join(repr(v) for v in value)
        lines.append(f"{key} = {value}")
    (out / "plan.txt").write_text("\n".join(lines) + "\n")


def _metric_rows_for(errors: np.ndarray) -> list:
    s = summarize(errors)
    return [
        ("re_median", "", s.median),
        ("re_q1", "", s.q1),
        ("re_q3", "", s.q3),
        ("re_iqr", "", s.iqr),
        ("re_mean", "", float(errors.mean())),
        ("re_count", "", float(s.count)),
    ]


def _binned_rows(truth, factors, eval_set, bins: BinSpec, floor: float) -> list:
    rows = []
    total = len(eval_set)
    for entry in binned_summaries(truth, factors, eval_set, bins, floor):
        label = "overflow" if entry.lower is None else f"{entry.lower:g}-{entry.upper:g}"
        rows.append(("bin_count", label, float(entry.count)))
        rows.append(("bin_fraction", label, entry.count / total if total else 0.0))
        if entry.summary is not None:
            rows.append(("re_median", label, entry.summary.median))
            rows.append(("re_q1", label, entry.summary.q1))
            rows.append(("re_q3", label, entry.summary.q3))
            rows.append(("re_iqr", label, entry.summary.iqr))
            rows.append(("re_min", label, float(entry.summary.values[0])))
            rows.append(("re_max", label, float(entry.summary.values[-1])))
    return rows


def _cdf_grid(plan: ExperimentPlan) -> np.ndarray:
    return np.linspace(0.0, plan.cdf_max, plan.cdf_points)


def _run_synth_cell(payload: dict) -> dict:
    plan = ExperimentPlan(**payload["plan"])
    seed, omega = payload["seed"], payload["omega"]
    run_id = f"synth_s{seed}_w{omega:g}"
    try:
        inst = make_completion_instance(
            plan.m, plan.n, plan.k_true, plan.noise_scale, plan.dof, plan.sampling_rate, seed
        )
        report = fit(inst.observed, plan.emf_config(omega, seed))
        errors = relative_errors(inst.truth, report.factors, inst.heldout, plan.eval_floor)
        rows = _metric_rows_for(errors)
        grid = _cdf_grid(plan)
        cdf = {"re": (grid, empirical_cdf(errors, grid))}
        suffix = "csv" if plan.format == "csv" else "json"
        export_results(
            report, rows, cdf, Path(plan.out_dir) / f"{run_id}.{suffix}", plan.format,
            run_id=run_id, omega=omega, rank=plan.rank,
            sampling_rate=plan.sampling_rate, seed=seed,
        )
        return {"run_id": run_id, "seed": seed, "omega": omega, "rows": rows, "error": None}
    except Exception as exc:  # cell failures reported, not fatal to the grid
        return {
            "run_id": run_id, "seed": seed, "omega": omega, "rows": [],
            "error": f"{type(exc).__name__}: {exc}",
            "trace": traceback.format_exc(),
        }


def _load_input(plan: ExperimentPlan):
    if plan.input is None:
        raise ValueError("--input is required for this mode")
    if plan.input_format == "triplets":
        obs = load_triplets(plan.input)
        data = None
    else:
        data, obs = load_dense(plan.input, MatrixFileSpec("dense", plan.sentinel))
    return data, obs


def _run_complete_cell(payload: dict) -> dict:
    plan = ExperimentPlan(**payload["plan"])
    seed, omega = payload["seed"], payload["omega"]
    run_id = f"complete_s{seed}_w{omega:g}"
    try:
        _, obs = _load_input(plan)
        m, n = obs.shape
        train_count = int(plan.sampling_rate * m * n)
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
        train = EntryObservations(
            obs.shape, obs.row_idx[train_sel], obs.col_idx[train_sel], obs.values[train_sel]
        )
        eval_rows = obs.row_idx[~train_sel]
        eval_cols = obs.col_idx[~train_sel]
        if eval_rows.size == 0:
            raise ValueError("no held-back entries left to evaluate on")
        truth = np.zeros(obs.shape)
        truth[obs.row_idx, obs.col_idx] = obs.values
        eval_set = np.column_stack([eval_rows, eval_cols])

        report = fit(train, plan.emf_config(omega, seed))
        errors = relative_errors(truth, report.factors, eval_set, plan.eval_floor)
        rows = _metric_rows_for(errors)
        rows += _binned_rows(truth, report.factors, eval_set, BinSpec(np.asarray(plan.bins)), plan.eval_floor)
        grid = _cdf_grid(plan)
        cdf = {"re": (grid, empirical_cdf(errors, grid))}
        suffix = "csv" if plan.format == "csv" else "json"
        export_results(
            report, rows, cdf, Path(plan.out_dir) / f"{run_id}.{suffix}", plan.format,
            run_id=run_id, omega=omega, rank=plan.rank,
            sampling_rate=plan.sampling_rate, seed=seed,
        )
        return {"run_id": run_id, "seed": seed, "omega": omega, "rows": rows, "error": None}
    except Exception as exc:
        return {
            "run_id": run_id, "seed": seed, "omega": omega, "rows": [],
            "error": f"{type(exc).__name__}: {exc}",
            "trace": traceback.format_exc(),
        }


def _run_grid(plan: ExperimentPlan, cell_fn) -> int:
    _write_provenance(plan)
    payloads = [
        {"plan": asdict(plan), "seed": s, "omega": w}
        for s in plan.seed
        for w in plan.omega
    ]
    if plan.workers > 1:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            results = list(pool.map(cell_fn, payloads))
    else:
        results = [cell_fn(p) for p in payloads]
    results.sort(key=lambda r: (r["seed"], r["omega"]))

    out = Path(plan.out_dir)
    lines = ["run_id,omega,rank,sampling_rate,seed,metric,bin,value"]
    failures = []
    for res in results:
        if res["error"] is not None:
            failures.append(res)
            continue
        echo = (
            f"{res['run_id']},{float(res['omega'])!r},{plan.rank},"
            f"{float(plan.sampling_rate)!r},{res['seed']}"
        )
        lines += [f"{echo},{metric},{label},{float(v)!r}" for metric, label, v in res["rows"]]
    (out / "summary.csv").write_text("\n".join(lines) + "\n")

    if failures:
        manifest = [f"{res['run_id']}\t{res['error']}" for res in failures]
        (out / "failures.txt").write_text("\n".join(manifest) + "\n")
        for res in failures:
            print(f"error\t{res['run_id']}\t{res['error']}", file=sys.stderr)
        return 1
    return 0


def _run_evaluate(plan: ExperimentPlan) -> int:
    _write_provenance(plan)
    if plan.input is None or plan.estimate is None:
        raise ValueError("evaluate needs --input (truth) and --estimate files")
    truth, obs = load_dense(plan.input, MatrixFileSpec("dense", plan.sentinel))
    est, _ = load_dense(plan.estimate, MatrixFileSpec("dense", plan.sentinel))
    if est.shape != truth.shape:
        raise ValueError(f"estimate shape {est.shape} != truth shape {truth.shape}")
    eval_set = np.column_stack([obs.row_idx, obs.col_idx])
    denom = obs.values
    bad = np.nonzero(np.abs(denom) < plan.eval_floor)[0]
    if bad.size:
        raise ValueError(f"truth entry at {eval_set[bad[0]]} is below the evaluation floor")
    errors = np.abs(denom - est[obs.row_idx, obs.col_idx]) / np.abs(denom)
    rows = _metric_rows_for(errors)
    grid = _cdf_grid(plan)
    cdf = {"re": (grid, empirical_cdf(errors, grid))}
    suffix = "csv" if plan.format == "csv" else "json"
    export_results(
        None, rows, cdf, Path(plan.out_dir) / f"evaluate.{suffix}", plan.format,
        run_id="evaluate", omega=plan.omega[0], rank=plan.rank,
        sampling_rate=plan.sampling_rate, seed=plan.seed[0],
    )
    return 0


def _run_expectile(plan: ExperimentPlan) -> int:
    if plan.input is None:
        raise ValueError("expectile needs --input (numeric text file)")
    tokens = Path(plan.input).read_text().split()
    values = np.array([float(t) for t in tokens])
    values = values[values != plan.sentinel]
    if values.size == 0:
        raise ValueError("no values left after dropping the sentinel")
    print("omega\texpectile")
    for w in plan.omega:
        print(f"{w:g}\t{scalar_expectile(values, w)!r}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        plan = _resolve_plan(args)
        if plan.mode == "synth-exp":
            return _run_grid(plan, _run_synth_cell)
        if plan.mode == "complete":
            return _run_grid(plan, _run_complete_cell)
        if plan.mode == "evaluate":
            return _run_evaluate(plan)
        if plan.mode == "expectile":
            return _run_expectile(plan)
        raise ValueError(f"unknown mode {plan.mode!r}")
    except Exception as exc:
        print(f"error\t{type(exc).__name__}\t{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
