"""Record a performance snapshot of this checkout as one JSON file.

Runs ``perfbench/run.py`` on every workload, untraced at each seed and
traced at the first one, times the tier-1 test suite, and writes every
metric with each run's ``correct`` flag, the CPU count, the Python version
and the git head. From the root of a checkout:

    python3 bench/record.py --out snapshot.json
    python3 bench/record.py --out /tmp/bench.json --seconds 1 --seeds 1

The exit code is 0 when every run is correct and the tests pass, else 1.
Standard library only: the benchmark runs as a separate command.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("tune-walk", "tune-mix", "campaign-table")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its last stdout line is the result object."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    if done.returncode != 0:
        result["correct"] = False
        result["stderr_tail"] = done.stderr.strip().splitlines()[-5:]
    return {"workload": workload, "seed": seed, "trace": trace, **result}


def time_tier1() -> dict:
    """Wall time of the tier-1 suite, with pytest's closing summary line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    return {
        "wall_s": round(time.perf_counter() - started, 2),
        "returncode": done.returncode,
        "summary": lines[-1] if lines else "",
    }


def git_head() -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[2, 3, 4])
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        for workload in WORKLOADS:
            runs.append(run_workload(workload, seed, args.seconds, trace=0))
    for workload in WORKLOADS:
        runs.append(run_workload(workload, args.seeds[0], args.seconds, trace=1))
    for run in runs:
        print(f"{run['workload']} seed {run['seed']} trace {run['trace']}: "
              f"correct={run['correct']}", file=sys.stderr)
    tier1 = time_tier1()
    print(f"tier-1: {tier1['summary']} ({tier1['wall_s']} s)", file=sys.stderr)

    record = {
        "git_head": git_head(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "tier1": tier1,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    ok = all(run["correct"] for run in runs) and tier1["returncode"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
