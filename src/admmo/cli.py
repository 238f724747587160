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
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .runspec import RunSpec
    from .tuner import TuningRun

# tune and bench import the tuner, the run-spec parser and the campaign
# harness when they run, and report needs none of them. perfbench's tracer
# looks these names up on this module, so they are served on first access.
_LAZY = {
    "load_runspec": "runspec",
    "run_campaign": "harness",
    "campaign_summary": "harness",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __package__), name)


CONVERGENCE_FIELDS = ("run_id", "measurement", "best_f_t_raw")
TUNE_OUTPUTS = ("trajectories", "convergence", "best.json")  # what tune writes
CAMPAIGN_OUTPUTS = ("trajectories", "convergence", "report", "summary.json")  # bench and report
# what report reads of a summary and of a case, and the type it needs; a
# summary may lack either key, but then it has no case to report or only
# failed ones, and a case may add a "speedup" mapping
SUMMARY_KEYS = {"cases": dict, "budgets": list}
CASE_KEYS = {"budgets": list, "optimizers": list, "repeats": int, "normalized_mean": dict}
TYPE_NAMES = {list: "a list", int: "an integer", dict: "a mapping"}
NOT_ACHIEVED_MARK = "✗"  # the "not achieved" cross in speedup tables


def run_id(case_id: str, label: str, budget: int, rep: int) -> str:
    """The id of one campaign run, which also names its output files.

    bench assigns it and report reads it back (``_is_listed_run``), so it
    lives here rather than in the harness: report must not load the tuner."""
    return f"{case_id}__{label}__b{budget}__r{rep}"


def _is_listed_run(name: str, cases: dict) -> bool:
    """Whether ``name`` is the ``run_id`` of a run that a summary's case
    entry lists, read off the name, so that no id is listed: a summary
    may give any number of repeats."""
    head, _, rep = name.rpartition("__r")
    head, _, budget = head.rpartition("__b")
    if not (rep.isdecimal() and str(int(rep)) == rep):
        return False
    return any(
        head.startswith(f"{case_id}__")
        and head[len(case_id) + 2 :] in entry["optimizers"]
        and budget in map(str, entry["budgets"])
        and int(rep) < entry["repeats"]
        for case_id, entry in cases.items()
        if "error" not in entry
    )


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


def _write_run_files(rid: str, run: TuningRun, out_dir: Path, provenance: list[str]) -> None:
    """Write one run's trajectory and convergence tables, named by its id."""
    from .tuner import IterationRecord

    _write_csv(
        out_dir / "trajectories" / f"{rid}.csv",
        provenance,
        ("run_id", *IterationRecord._fields),
        ((rid, *rec) for rec in run.trajectory),
    )
    _write_csv(
        out_dir / "convergence" / f"{rid}.csv",
        provenance,
        CONVERGENCE_FIELDS,
        ((rid, i + 1, best) for i, best in enumerate(run.best_by_measurement)),
    )


def _refuse_non_empty(out_dir: Path, force: bool) -> bool:
    """Say so and return True when ``out_dir`` holds files and ``--force``
    was not given."""
    if force or not out_dir.exists() or not any(out_dir.iterdir()):
        return False
    print(
        f"error: output directory {out_dir} is not empty; pass --force to overwrite",
        file=sys.stderr,
    )
    return True


def _remove_outputs(out_dir: Path, names: tuple[str, ...]) -> None:
    """Remove what a command writes in ``out_dir``, so that no file of an
    earlier run mixes with the new one's; other files stay."""
    for name in names:
        path = out_dir / name
        if path.is_dir():
            shutil.rmtree(path, ignore_errors=True)
        else:
            path.unlink(missing_ok=True)


def _spec_with_flags(args) -> RunSpec:
    """The run-spec with the command's flags applied; ``replace`` checks a
    flag as ``load_runspec`` checks the file value it stands in for."""
    from dataclasses import replace

    from .runspec import load_runspec

    spec = load_runspec(args.spec)
    flags = vars(args)  # tune has no --repeats
    overrides = {key: flags[key] for key in ("repeats", "seed", "p") if flags.get(key) is not None}
    if args.budget is not None:
        overrides["budgets"] = (args.budget,)
    if args.optimizer is not None:
        overrides["optimizers"] = (spec.select_optimizer(args.optimizer),)
    return replace(spec, **overrides)


def cmd_tune(args) -> int:
    """The first case's first optimizer at the first budget; writes the
    best found and the trajectory."""
    from .baselines import run_optimizer
    from .tuner import TunerParams

    spec = _spec_with_flags(args)
    case = spec.cases[0]
    optimizer = spec.optimizers[0]
    budget = spec.budgets[0]
    out_dir = Path(args.out) if args.out else spec.output_dir / "tune"
    if _refuse_non_empty(out_dir, args.force):
        return 2

    params = TunerParams(budget, spec.population_size, spec.p)
    rid = f"{case.case_id}__{optimizer.label}__b{budget}__s{spec.seed}"
    run = run_optimizer(optimizer, case.space, case.oracle, params, spec.seed)

    _remove_outputs(out_dir, TUNE_OUTPUTS)
    provenance = _provenance(spec.digest, spec.seed)
    _write_run_files(rid, run, out_dir, provenance)
    best = {
        "run_id": rid,
        "case": case.case_id,
        "optimizer": optimizer.label,
        "seed": spec.seed,
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
        f"{rid}: best f_t = {run.best_f_t:.6g} "
        f"after {run.measurements_used} measurements -> {out_dir}"
    )
    return 0


def cmd_bench(args) -> int:
    """Full campaign: every optimizer x case x budget x repeat, plus the
    statistics summary."""
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    from .harness import campaign_summary, run_campaign

    spec = _spec_with_flags(args)
    out_dir = Path(args.out) if args.out else spec.output_dir

    if _refuse_non_empty(out_dir, args.force):
        return 2

    results = run_campaign(spec, jobs=args.jobs)

    _remove_outputs(out_dir, CAMPAIGN_OUTPUTS)
    provenance = _provenance(spec.digest, spec.seed)
    for case_result in results:
        for label, per_budget in case_result.runs.items():
            for budget, runs in per_budget.items():
                for rep, run in enumerate(runs):
                    rid = run_id(case_result.case_id, label, budget, rep)
                    _write_run_files(rid, run, out_dir, provenance)

    summary = campaign_summary(results)
    summary["artifact_version"] = __version__
    summary["spec_digest"] = f"sha256:{spec.digest}"
    summary["base_seed"] = spec.seed
    summary["p"] = spec.p
    summary["repeats"] = spec.repeats
    summary["budgets"] = list(spec.budgets)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    failed = [r.case_id for r in results if r.error is not None]
    for case_id in failed:
        print(f"case {case_id} failed: see summary.json", file=sys.stderr)
    print(f"campaign written to {out_dir} ({len(results) - len(failed)}/{len(results)} cases ok)")
    return 1 if len(failed) == len(results) else 0


def _summary_problem(summary) -> str | None:
    """Why report cannot read a summary's top level, or None if it can."""
    if not isinstance(summary, dict):
        return f"is {summary!r}, not a mapping"
    for key, kind in SUMMARY_KEYS.items():
        if key in summary and not isinstance(summary[key], kind):
            return f"has {key!r} {summary[key]!r}, not {TYPE_NAMES[kind]}"
    return None


def _case_entry_problem(entry, budgets: list | None) -> str | None:
    """Why report cannot read a summary's case entry, or None if it can;
    ``budgets`` are the summary's, which head the performance table, or
    None if it has none."""
    if not isinstance(entry, dict):
        return f"is {entry!r}, not a mapping"
    if "error" in entry:
        return None
    for key, kind in CASE_KEYS.items():
        if key not in entry:
            return f"lacks {key!r}"
        if not isinstance(entry[key], kind):
            return f"has {key!r} {entry[key]!r}, not {TYPE_NAMES[kind]}"
    if not entry["normalized_mean"]:
        return "has an empty 'normalized_mean'"
    for label, means in entry["normalized_mean"].items():
        if not isinstance(means, dict):
            return f"has 'normalized_mean.{label}' {means!r}, not a mapping"
        for b in entry["budgets"]:
            if str(b) not in means:
                return f"lists budget {b} in 'budgets' but not in 'normalized_mean.{label}'"
            if not isinstance(means[str(b)], (int, float)):
                return f"has 'normalized_mean.{label}.{b}' {means[str(b)]!r}, not a number"
    speedups = entry.get("speedup", {})
    if not isinstance(speedups, dict):
        return f"has 'speedup' {speedups!r}, not a mapping"
    for label, value in speedups.items():
        if value is not None and not isinstance(value, (int, float)):
            return f"has 'speedup.{label}' {value!r}, not a number or null"
    if budgets is None:
        return f"lists budgets {entry['budgets']}, but the summary has no 'budgets'"
    if entry["budgets"] != budgets:
        return f"lists budgets {entry['budgets']}, but the summary lists {budgets}"
    return None


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
    problem = _summary_problem(summary)
    if problem:
        print(f"error: {summary_path} {problem}", file=sys.stderr)
        return 2

    cases = summary.get("cases", {})
    if not cases:
        print(f"error: campaign at {campaign_dir} contains no cases", file=sys.stderr)
        return 2
    for case_id, entry in sorted(cases.items()):
        problem = _case_entry_problem(entry, summary.get("budgets"))
        if problem:
            print(f"error: case {case_id!r} in {summary_path} {problem}", file=sys.stderr)
            return 2
    failed = [(case_id, entry["error"]) for case_id, entry in sorted(cases.items())
              if "error" in entry]
    for case_id, error in failed:
        print(f"case {case_id} failed: {error}", file=sys.stderr)
    if len(failed) == len(cases):  # as bench, when every case failed
        return 1

    report_dir = Path(args.out) if args.out else campaign_dir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)

    performance_rows = []
    speedup_rows = []
    reference = None  # the optimizer the case entries' speedups are against
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
        reference = entry.get("speedup_reference", reference)
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
        print(f"speedup vs {reference} ({NOT_ACHIEVED_MARK} = not achieved):")
        for row in speedup_rows:
            print("  " + "  ".join(str(c) for c in row))
    print(f"report written to {report_dir}")
    return 0


def _collect_weight_series(campaign_dir: Path, cases: dict):
    """The (w, p') rows of every run the summary lists, in run-id order.

    Other files in ``trajectories/`` are not read, and a listed run whose
    file is missing adds no rows."""
    paths = sorted((campaign_dir / "trajectories").glob("*.csv"), key=lambda path: path.stem)
    for path in paths:
        if not _is_listed_run(path.stem, cases):
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

    # the run-spec and the overrides of tune and bench, which _spec_with_flags applies alike
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("spec", help="path to the run-spec file")
    shared.add_argument("--optimizer", help="run this optimizer label alone (tune's default: first)")
    shared.add_argument("--budget", type=int, help="run this budget alone (tune's default: first)")
    shared.add_argument("--seed", type=int, help="seed override (bench's base seed)")
    shared.add_argument("--p", type=float, help="target nondominated proportion override")
    shared.add_argument("--force", action="store_true", help="replace the command's earlier output")
    shared.add_argument("--out", help="output directory override")

    tune = sub.add_parser(
        "tune", parents=[shared], help="run one optimizer once and write the best found"
    )
    tune.set_defaults(func=cmd_tune)

    bench = sub.add_parser("bench", parents=[shared], help="run the full benchmark campaign")
    bench.add_argument("--repeats", type=int, help="repeats override")
    bench.add_argument(
        "--jobs", type=int, default=1, help="processes running runs, this one included (default 1)"
    )
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
    except (OSError, ValueError, LookupError) as exc:
        from .oracles import UnmeasuredConfigurationError
        from .runspec import RunSpecError

        if isinstance(exc, LookupError) and not isinstance(exc, UnmeasuredConfigurationError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, RunSpecError) else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
