"""Command-line entry points: single tuning runs, campaigns, reports.

Every output file starts with provenance comments (artifact version,
run-spec digest, seed) and is byte-identical when rerun with the same
spec and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .baselines import run_optimizer
from .harness import campaign_summary, run_campaign, run_id
from .runspec import RunSpec, RunSpecError, load_runspec
from .tuner import IterationRecord, TunerParams, TuningRun

TRAJECTORY_FIELDS = ("run_id",) + tuple(f.name for f in fields(IterationRecord))
CONVERGENCE_FIELDS = ("run_id", "measurement", "best_f_t_raw")
CAMPAIGN_DIRS = ("trajectories", "convergence", "report")  # what bench and report write
NOT_ACHIEVED_MARK = "✗"  # the "not achieved" cross in speedup tables


def _provenance(digest: str, seed: int) -> list[str]:
    return [
        f"# artifact_version: {__version__}",
        f"# spec_digest: sha256:{digest}",
        f"# seed: {seed}",
    ]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _write_csv(path: Path, header_lines: list[str], fields: tuple[str, ...], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _trajectory_rows(run: TuningRun):
    for rec in run.trajectory:
        yield (run.run_id, *(getattr(rec, name) for name in TRAJECTORY_FIELDS[1:]))


def _convergence_rows(run: TuningRun):
    for i, best in enumerate(run.best_by_measurement):
        yield (run.run_id, i + 1, best)


def _write_run_files(run: TuningRun, out_dir: Path, provenance: list[str]) -> None:
    _write_csv(
        out_dir / "trajectories" / f"{run.run_id}.csv",
        provenance,
        TRAJECTORY_FIELDS,
        _trajectory_rows(run),
    )
    _write_csv(
        out_dir / "convergence" / f"{run.run_id}.csv",
        provenance,
        CONVERGENCE_FIELDS,
        _convergence_rows(run),
    )


def _tuner_params(spec: RunSpec, budget: int, p: float) -> TunerParams:
    return TunerParams(
        budget=budget,
        population_size=spec.population_size,
        target_proportion=p,
    )


def cmd_tune(args) -> int:
    """One optimizer, one budget, one seed; writes the best found and the
    trajectory."""
    spec = load_runspec(args.spec)
    case = spec.cases[0]
    optimizer = _select_optimizer(spec, args.optimizer)
    budget = args.budget if args.budget is not None else spec.budgets[0]
    seed = args.seed if args.seed is not None else spec.seed
    p = args.p if args.p is not None else spec.p
    out_dir = Path(args.out) if args.out else spec.output_dir / "tune"

    params = _tuner_params(spec, budget, p)
    run_id = f"{case.case_id}__{optimizer.label}__b{budget}__s{seed}"
    run = run_optimizer(optimizer, case.space, case.oracle, params, seed, run_id=run_id)

    provenance = _provenance(spec.digest, seed)
    _write_run_files(run, out_dir, provenance)
    best = {
        "run_id": run.run_id,
        "case": case.case_id,
        "optimizer": optimizer.label,
        "seed": seed,
        "budget": budget,
        "measurements_used": run.measurements_used,
        "best_configuration": dict(zip(case.space.option_names, run.best_config.values)),
        "best_f_t": run.best_f_t,
        "best_f_a": run.best_f_a,
        "artifact_version": __version__,
        "spec_digest": f"sha256:{spec.digest}",
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "best.json").write_text(json.dumps(best, indent=2, sort_keys=True) + "\n")
    print(
        f"{run.run_id}: best f_t = {run.best_f_t:.6g} "
        f"after {run.measurements_used} measurements -> {out_dir}"
    )
    return 0


def _select_optimizer(spec: RunSpec, label: str | None):
    """The optimizer with this label, else the first of this kind."""
    if label is None:
        return spec.optimizers[0]
    for opt in spec.optimizers:
        if opt.label == label:
            return opt
    for opt in spec.optimizers:
        if opt.kind == label:
            return opt
    raise RunSpecError(
        f"optimizer {label!r} not in spec (have: {[o.label for o in spec.optimizers]})"
    )


def cmd_bench(args) -> int:
    """Full campaign: every optimizer x case x budget x repeat, plus the
    statistics summary."""
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    spec = load_runspec(args.spec)
    repeats = args.repeats if args.repeats is not None else spec.repeats
    seed = args.seed if args.seed is not None else spec.seed
    p = args.p if args.p is not None else spec.p
    budgets = (args.budget,) if args.budget is not None else spec.budgets
    optimizers = spec.optimizers
    if args.optimizer is not None:
        optimizers = (_select_optimizer(spec, args.optimizer),)
    if any(b < spec.population_size for b in budgets):
        raise RunSpecError("every budget must be at least the population size")
    out_dir = Path(args.out) if args.out else spec.output_dir

    if out_dir.exists() and any(out_dir.iterdir()) and not args.force:
        print(
            f"error: output directory {out_dir} is not empty; pass --force to overwrite",
            file=sys.stderr,
        )
        return 2

    params = _tuner_params(spec, max(budgets), p)
    results = run_campaign(
        spec.cases,
        optimizers,
        budgets,
        repeats,
        base_seed=seed,
        params=params,
        jobs=args.jobs,
    )

    # a previous campaign's run files must not mix with this one's
    for name in CAMPAIGN_DIRS:
        shutil.rmtree(out_dir / name, ignore_errors=True)
    (out_dir / "summary.json").unlink(missing_ok=True)
    provenance = _provenance(spec.digest, seed)
    for case_result in results:
        for per_budget in case_result.runs.values():
            for runs in per_budget.values():
                for run in runs:
                    _write_run_files(run, out_dir, provenance)

    summary = campaign_summary(results)
    summary["artifact_version"] = __version__
    summary["spec_digest"] = f"sha256:{spec.digest}"
    summary["base_seed"] = seed
    summary["p"] = p
    summary["repeats"] = repeats
    summary["budgets"] = [int(b) for b in budgets]
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    failed = [r.case_id for r in results if r.error is not None]
    for case_id in failed:
        print(f"case {case_id} failed: see summary.json", file=sys.stderr)
    print(f"campaign written to {out_dir} ({len(results) - len(failed)}/{len(results)} cases ok)")
    return 1 if len(failed) == len(results) else 0


def cmd_report(args) -> int:
    """Render the campaign summary into flat tables and trajectory series."""
    campaign_dir = Path(args.campaign_dir)
    summary_path = campaign_dir / "summary.json"
    if not summary_path.exists():
        print(f"error: no campaign summary at {summary_path}", file=sys.stderr)
        return 2
    try:
        summary = json.loads(summary_path.read_text())
    except json.JSONDecodeError as exc:
        print(f"error: corrupt summary {summary_path}: {exc}", file=sys.stderr)
        return 2

    report_dir = Path(args.out) if args.out else campaign_dir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    cases = summary.get("cases", {})
    if not cases:
        print(f"error: campaign at {campaign_dir} contains no cases", file=sys.stderr)
        return 2

    performance_rows = []
    speedup_rows = []
    for case_id, entry in sorted(cases.items()):
        if "error" in entry:
            continue
        budgets = entry["budgets"]
        best_per_budget = {
            str(b): min(means[str(b)] for means in entry["normalized_mean"].values())
            for b in budgets
        }
        for label, means in sorted(entry["normalized_mean"].items()):
            row = [case_id, label]
            for b in budgets:
                value = means[str(b)]
                mark = "*" if value <= best_per_budget[str(b)] else ""
                row.append(f"{value:.4f}{mark}")
            performance_rows.append(row)
        for label, value in sorted(entry.get("speedup", {}).items()):
            speedup_rows.append(
                [case_id, label, NOT_ACHIEVED_MARK if value is None else f"{value:.3g}"]
            )

    budgets_header = [f"S{b}" for b in summary.get("budgets", [])]
    _write_csv(
        report_dir / "performance.csv",
        [],
        tuple(["case", "optimizer"] + budgets_header),
        performance_rows,
    )
    if speedup_rows:
        _write_csv(
            report_dir / "speedup.csv",
            [],
            ("case", "optimizer", "speedup"),
            speedup_rows,
        )

    series_rows = list(_collect_weight_series(campaign_dir, cases))
    if series_rows:
        _write_csv(
            report_dir / "weight_series.csv",
            [],
            ("run_id", "iteration", "w", "p_prime"),
            series_rows,
        )

    print(f"normalized target performance (smaller is better, * marks the best cell):")
    for row in performance_rows:
        print("  " + "  ".join(str(c) for c in row))
    if speedup_rows:
        print(f"speedup vs {summary.get('speedup_reference', 'admmo')} "
              f"({NOT_ACHIEVED_MARK} = not achieved):")
        for row in speedup_rows:
            print("  " + "  ".join(str(c) for c in row))
    print(f"report written to {report_dir}")
    return 0


def _collect_weight_series(campaign_dir: Path, cases: dict):
    """The (w, p') rows of every run the summary lists, in run-id order.

    Other files in ``trajectories/`` are not read, and a listed run whose
    file is missing adds no rows."""
    run_ids = sorted(
        run_id(case_id, label, budget, rep)
        for case_id, entry in cases.items()
        if "error" not in entry
        for label in entry["optimizers"]
        for budget in entry["budgets"]
        for rep in range(entry["repeats"])
    )
    for rid in run_ids:
        path = campaign_dir / "trajectories" / f"{rid}.csv"
        if not path.exists():
            continue
        with path.open(encoding="utf-8") as fh:
            reader = csv.DictReader(line for line in fh if not line.startswith("#"))
            for row in reader:
                if row.get("w"):
                    yield (row["run_id"], row["iteration"], row["w"], row["p_prime"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admmo",
        description="Configuration-tuning toolkit with adaptive weighted multi-objectivization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune", help="run one optimizer once and write the best found")
    tune.add_argument("spec", help="path to the run-spec file")
    tune.add_argument("--optimizer", help="optimizer label from the spec (default: first)")
    tune.add_argument("--budget", type=int, help="measurement budget override")
    tune.add_argument("--seed", type=int, help="seed override")
    tune.add_argument("--p", type=float, help="target nondominated proportion override")
    tune.add_argument("--out", help="output directory override")
    tune.set_defaults(func=cmd_tune)

    bench = sub.add_parser("bench", help="run the full benchmark campaign")
    bench.add_argument("spec", help="path to the run-spec file")
    bench.add_argument("--optimizer", help="restrict the campaign to one optimizer label")
    bench.add_argument("--repeats", type=int, help="repeats override")
    bench.add_argument("--seed", type=int, help="base seed override")
    bench.add_argument("--budget", type=int, help="run a single budget instead of the ladder")
    bench.add_argument("--p", type=float, help="target nondominated proportion override")
    bench.add_argument("--jobs", type=int, default=1, help="parallel runs (default 1)")
    bench.add_argument("--force", action="store_true", help="replace an existing campaign")
    bench.add_argument("--out", help="output directory override")
    bench.set_defaults(func=cmd_bench)

    report = sub.add_parser("report", help="render tables and plot data from a campaign")
    report.add_argument("campaign_dir", help="directory written by 'bench'")
    report.add_argument("--out", help="report directory (default: <campaign>/report)")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RunSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
