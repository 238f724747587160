"""Compare the benchmark of a base revision and this checkout in alternating pairs.

Checks REV out in a detached ``git worktree`` under a temporary
directory (removed again however the script ends), then runs each
side's own ``perfbench/run.py`` untraced on one workload, for N pairs
at one seed and run length, alternating which side runs first; each run
is started by ``bench/record.py``'s ``run_perfbench``. For
every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the pairs this checkout wins (ties count for
neither; ``better`` gives the direction) and whether a gain may be
claimed: at least 10 pairs, 9 of every 10 of them won, and the medians
further apart than the base's interquartile range. From the root of a
checkout:

    python3 bench/compare.py --base HEAD~1 --workload tune-mix --pairs 10 --seconds 10 --seed 7

Two more workloads time a fixed command in each side's tree instead,
with that tree's ``src`` as the whole ``PYTHONPATH``, by ``bench/record.py``'s
``run_timed``; ``--seed`` and ``--seconds`` do not apply to them. Their
one metric is the wall time ``wall_s``, lower is better, and a run is
correct when it exits 0:

* ``demo``: ``python -m admmo bench demos/data/demo-spec.yaml --jobs 1``
  into a temporary ``--out``; the table says in how many pairs both sides
  wrote the same ``summary.json``;
* ``tier1``: the tier-1 suite; the table says when ``tests/`` differs
  between the sides, for then the pair times two different suites.

    python3 bench/compare.py --base HEAD~1 --workload demo --pairs 10

It writes the same table as JSON (``--out``, by default
``compare-<workload>.json``), with the checkout's git provenance and
every run's result, perfbench's ``raw:`` line included as ``raw``. The
exit code is 0 when every run is correct, 1 when one is not, and 2 when
REV is not a commit, or when ``perfbench/`` or ``BENCHMARK.json``
differ between REV and the checkout: a comparison needs the same
benchmark code on both sides. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from record import TIER1, git_provenance, run_perfbench, run_timed

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_PATHS = ("perfbench", "BENCHMARK.json")
CLAIM_PAIRS = 10  # fewest pairs a claimed gain rests on
CLAIM_WINS = 0.9  # share of pairs the checkout must win to claim a gain
DEMO = ("-m", "admmo", "bench", "demos/data/demo-spec.yaml", "--jobs", "1")
COMMANDS = ("demo", "tier1")  # the workloads that time a command, not perfbench
WALL = {"name": "wall_s", "unit": "s", "better": "lower"}


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def differences(commit: str, paths: tuple[str, ...] = BENCHMARK_PATHS) -> list[str]:
    """The files under ``paths`` (by default the benchmark's) that differ
    between ``commit`` and the checkout, untracked ones included."""
    changed = git("diff", "--name-only", commit, "--", *paths).stdout.split()
    untracked = git("ls-files", "--others", "--exclude-standard", "--", *paths).stdout.split()
    return sorted(set(changed + untracked))


def run_command(root: Path, workload: str) -> dict:
    """One ``run_timed`` run of ``demo`` or ``tier1`` in the checkout at
    ``root``, shaped as a perfbench result with the one metric ``wall_s``.
    A ``demo`` run keeps the sha256 of the ``summary.json`` it wrote as
    ``summary_sha256``, None when it wrote none."""
    if workload == "tier1":
        done = run_timed(root, *TIER1)
    else:
        with tempfile.TemporaryDirectory(prefix="compare-demo-") as out:
            done = run_timed(root, *DEMO, "--out", out)
            summary = Path(out) / "summary.json"
            digest = hashlib.sha256(summary.read_bytes()).hexdigest() if summary.exists() else None
            done["summary_sha256"] = digest
    metric = {"value": done["wall_s"], "unit": WALL["unit"]}
    return {"correct": done["returncode"] == 0, "metrics": {WALL["name"]: metric}, **done}


def spread(values: list[float]) -> dict:
    """Median and quartiles; with one value all three are that value."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare_metric(metric: dict, base: list[float], head: list[float]) -> dict:
    """One row of the table: both sides' spreads, the checkout's wins and
    whether the claim rule holds."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    base_spread, head_spread = spread(base), spread(head)
    gap = sign * (head_spread["median"] - base_spread["median"])
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "base": base_spread,
        "head": head_spread,
        "wins": wins,
        "losses": losses,
        "claim_holds": (
            len(base) >= CLAIM_PAIRS
            and wins >= CLAIM_WINS * len(base)
            and gap > base_spread["q3"] - base_spread["q1"]
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, help="default: compare-<workload>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    out = args.out or Path(f"compare-{args.workload}.json")

    resolved = git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}")
    if resolved.returncode != 0:
        print(f"error: {args.base!r} is not a commit", file=sys.stderr)
        return 2
    commit = resolved.stdout.strip()
    differing = differences(commit)
    if differing:
        print(f"error: the benchmark differs from {args.base}: {', '.join(differing)}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in benchmark["workloads"]] + list(COMMANDS)
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    command = args.workload in COMMANDS
    metrics = [WALL] if command else benchmark["end_to_end"]
    tests_differ = differences(commit, ("tests",)) if args.workload == "tier1" else []

    runs = []
    with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
        base_root = Path(tmp) / "base"
        added = git("worktree", "add", "--detach", str(base_root), commit)
        if added.returncode != 0:
            print(f"error: git worktree add failed: {added.stderr.strip()}", file=sys.stderr)
            return 2
        try:
            for pair in range(args.pairs):
                sides = [("base", base_root), ("head", ROOT)]
                if pair % 2:
                    sides.reverse()
                results = {}
                for side, root in sides:
                    results[side] = (
                        run_command(root, args.workload) if command
                        else run_perfbench(root, args.workload, args.seed, args.seconds, trace=0)
                    )
                    print(f"pair {pair + 1} {side}: correct={results[side]['correct']}", file=sys.stderr)
                    for line in results[side].get("stderr_tail", []):
                        print(f"  {line}", file=sys.stderr)
                runs.append({"first": sides[0][0], **results})
                if args.workload == "demo":
                    digests = {results[side]["summary_sha256"] for side in ("base", "head")}
                    runs[-1]["same_summary"] = len(digests) == 1 and None not in digests
        finally:
            git("worktree", "remove", "--force", str(base_root))
            git("worktree", "prune")

    table = {}
    for metric in metrics:
        name = metric["name"]
        values = {
            side: [run[side]["metrics"][name]["value"] for run in runs if name in run[side]["metrics"]]
            for side in ("base", "head")
        }
        if len(values["base"]) == len(values["head"]) == len(runs):
            table[name] = compare_metric(metric, values["base"], values["head"])
    settings = "" if command else f", seed {args.seed}, {args.seconds} s"
    print(f"{args.workload}{settings}, {len(runs)} pairs: base {args.base} ({commit[:12]})")
    print(f"{'metric':<20} {'base median [q1, q3]':>32} {'head median [q1, q3]':>32} {'wins':>7}  claim")
    for name, row in table.items():
        cells = [f"{row[s]['median']:.6g} [{row[s]['q1']:.6g}, {row[s]['q3']:.6g}]" for s in ("base", "head")]
        print(f"{name:<20} {cells[0]:>32} {cells[1]:>32} {row['wins']:>3}/{len(runs):<3}  {'holds' if row['claim_holds'] else 'no'}")
    if args.workload == "demo":
        same = sum(run["same_summary"] for run in runs)
        print(f"summary.json: the same on both sides in {same}/{len(runs)} pairs")
    if tests_differ:
        print(f"tests/ differs between the sides, so each pair times two suites: {', '.join(tests_differ)}")

    record = {
        **git_provenance(),
        "base": {"rev": args.base, "commit": commit},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        **({"tests_differ": tests_differ} if args.workload == "tier1" else {}),
        "pairs": len(runs),
        "metrics": table,
        "runs": runs,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(run[side]["correct"] for run in runs for side in ("base", "head")) else 1


if __name__ == "__main__":
    sys.exit(main())
