"""Record a performance snapshot of this checkout as one JSON file.

Runs ``perfbench/run.py`` on every workload of ``BENCHMARK.json``,
untraced at each seed and traced at the first one, times the tier-1 test
suite, and writes every metric with each run's ``correct`` flag, the CPU
count, the Python version and the git head, marked dirty with a digest of
the uncommitted diff when the tree is not clean. Each untraced run also
keeps perfbench's ``raw:`` line as ``raw``: the unscaled figures and the
median calibration slice, the host speed perfbench measured during the
run. From the root of a checkout:

    python3 bench/record.py --out snapshot.json
    python3 bench/record.py --out /tmp/bench.json --seconds 1 --seeds 1

The exit code is 0 when every run is correct, every untraced run has its
``raw`` line, and the tests pass, else 1; each failed run's last stderr
lines are printed under its summary line. ``run_perfbench`` is the one
starter of a perfbench run and ``run_timed`` the one timer of a command;
``bench/compare.py`` uses both.
Standard library only: the benchmark runs as a separate command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RAW_PREFIX = "raw: "  # perfbench's stderr line of unscaled figures and host speed
TIER1 = ("-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors")


def run_perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run of the checkout at ``root``, without the caller's
    ``PYTHONPATH``. Its last stdout line is the result object; a run whose
    last line is missing or not JSON, or that exits non-zero, is not
    correct, and the latter keeps its last stderr lines as ``stderr_tail``.
    perfbench's ``raw:`` stderr line is kept as ``raw``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    if done.returncode != 0:
        result["correct"] = False
        result["stderr_tail"] = done.stderr.strip().splitlines()[-5:]
    for line in done.stderr.splitlines():
        if line.startswith(RAW_PREFIX):
            result["raw"] = line[len(RAW_PREFIX):]
    return result


def run_timed(root: Path, *args: str) -> dict:
    """``python *args`` in the checkout at ``root``, with its ``src`` as the
    whole ``PYTHONPATH``: the wall time, the exit code and the last stdout
    line as ``summary``. A run that exits non-zero keeps its last stderr
    lines as ``stderr_tail``."""
    env = dict(os.environ, PYTHONPATH="src")
    started = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = {
        "wall_s": round(time.perf_counter() - started, 3),
        "returncode": done.returncode,
        "summary": lines[-1] if lines else "",
    }
    if done.returncode != 0:
        result["stderr_tail"] = done.stderr.strip().splitlines()[-5:]
    return result


def git_provenance() -> dict:
    """The commit the checkout stands on and, when its tree is not clean,
    ``dirty: true`` and the sha256 of ``git diff HEAD``: a record taken
    before a commit measures HEAD plus that diff, not HEAD."""
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return {"git_head": None}
    record = {"git_head": head.stdout.decode().strip(), "dirty": False}
    if git("status", "--porcelain").stdout:
        record["dirty"] = True
        record["diff_sha256"] = hashlib.sha256(git("diff", "HEAD").stdout).hexdigest()
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[2, 3, 4])
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    plan = [(seed, 0) for seed in args.seeds] + [(args.seeds[0], 1)]
    runs = [
        {"workload": workload, "seed": seed, "trace": trace,
         **run_perfbench(ROOT, workload, seed, args.seconds, trace)}
        for seed, trace in plan
        for workload in workloads
    ]
    for run in runs:
        print(f"{run['workload']} seed {run['seed']} trace {run['trace']}: "
              f"correct={run['correct']} raw: {run.get('raw')}", file=sys.stderr)
        for line in run.get("stderr_tail", []):
            print(f"  {line}", file=sys.stderr)
    tier1 = run_timed(ROOT, *TIER1)
    print(f"tier-1: {tier1['summary']} ({tier1['wall_s']} s)", file=sys.stderr)

    record = {
        **git_provenance(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "tier1": tier1,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    ok = all(run["correct"] and (run["trace"] or "raw" in run) for run in runs)
    return 0 if ok and tier1["returncode"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
