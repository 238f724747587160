"""Run the tier-1 tests, without the golden digests, against small mutants.

Each mutant below replaces one to three whole lines of the program. The
script applies it to a temporary copy of this checkout, runs the tier-1
suite there without ``tests/test_golden.py``, and prints the tests that
failed, or "survived". From the root of a checkout whose tests pass:

    python3 bench/mutants.py             # every mutant
    python3 bench/mutants.py M9 M10      # the named ones
    python3 bench/mutants.py --list

A mutant may carry a reason it is expected to survive: it is equivalent
(it changes no behaviour), or it changes only what the golden digests
pin. The exit code is 1 when a mutant without such a reason survives,
2 when a mutant's lines are not in the program exactly once as whole
lines, else 0. ``--list`` makes that last check too, and runs nothing.
Standard library only. Each mutant costs a whole tier-1 run, so CI runs
``--list`` and, on one Python version, only the mutants of the
generation loop that the pmo and GA kinds share, of survival's n_d, of
two campaign grid rules, of the sort's order within a later front and
of the run-spec digest's import.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900  # a mutant that hangs the suite counts as killed
SHOWN = 3  # failed tests named per mutant
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_tmp", "*.egg-info", "build"
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    breaks: str
    survives: str | None = None  # why the non-golden tests cannot kill it


TUNER = "src/admmo/tuner.py"
ORACLES = "src/admmo/oracles.py"
SPACE = "src/admmo/space.py"
HARNESS = "src/admmo/harness.py"
RUNSPEC = "src/admmo/runspec.py"
MUTANTS = (
    Mutant(
        "M3", TUNER,
        "                successor.append(ind)\n",
        "                successor.insert(0, ind)\n",
        "demoted copies go before the next front's members, the last first, not after them",
    ),
    Mutant(
        "M5", TUNER,
        "    if best < state.best_f_t:\n",
        "    if best <= state.best_f_t:\n",
        "a tie on the best f_t resets the stagnation count",
    ),
    Mutant(
        "M6", "src/admmo/nsga2.py",
        "    if len(front) <= 2:\n",
        "    if len(front) < 2:\n",
        "a two-member front goes through the crowding loop",
        survives="equivalent: both members are boundary points and get +inf anyway",
    ),
    Mutant(
        "M7", "src/admmo/nsga2.py",
        "        return a if a.crowding > b.crowding else b\n",
        "        return a if a.crowding < b.crowding else b\n",
        "the tournament prefers the less crowded",
    ),
    Mutant(
        "M9", TUNER,
        "    return fill_by_fronts(fronts, capacity), Proportion(nondominated, unique)\n",
        "    survivors = fill_by_fronts(fronts, capacity)\n"
        "    front = {s.config for s in survivors if s.rank == 0}\n"
        "    return survivors, Proportion(len(front), len({s.config for s in survivors}))\n",
        "p' is counted on the survivors, the next parents, not on the union",
    ),
    Mutant(
        "M10", TUNER,
        "    while ledger.consumed < limit and stalled < STALL_ITERATION_CAP:\n",
        "    while ledger.consumed < limit and stalled < STALL_ITERATION_CAP // 2:\n",
        "the stall cap is halved",
    ),
    Mutant(
        "unique-over-survivors", TUNER,
        "    return fill_by_fronts(fronts, capacity), Proportion(nondominated, unique)\n",
        "    survivors = fill_by_fronts(fronts, capacity)\n"
        "    return survivors, Proportion(nondominated, len({s.config for s in survivors}))\n",
        "n_u counts the survivors' configurations, not the union's",
    ),
    Mutant(
        "front-zero-copies", TUNER,
        "        nondominated = len({ind.config for ind in fronts[0]})\n",
        "        nondominated = len(fronts[0])\n",
        "in indistinct mode n_d counts every copy in front 0, not the distinct configurations",
    ),
    Mutant(
        "front-zero-length-before-demotion", TUNER,
        "        if duplicates_mode == DUPLICATES_PARTIAL:\n"
        "            demote_duplicates(fronts)\n"
        "        nondominated = len(fronts[0]) if len(fronts) > 1 else unique\n",
        "        nondominated = len(fronts[0]) if len(fronts) > 1 else unique\n"
        "        if duplicates_mode == DUPLICATES_PARTIAL:\n"
        "            demote_duplicates(fronts)\n",
        "in partial mode n_d is the length of front 0 before demotion, so it counts every copy",
    ),
    Mutant(
        "lone-front-counts-copies", TUNER,
        "        nondominated = len(fronts[0]) if len(fronts) > 1 else unique\n",
        "        nondominated = len(fronts[0])\n",
        "n_d is the length of a lone front 0, which keeps its copies, so p' can exceed 1",
    ),
    Mutant(
        "pmo-weight", TUNER,
        "        if spec.kind != \"pmo\":\n",
        "        if True:\n",
        "pmo runs and records the weight 1.0 instead of none",
    ),
    # the GA's selection inside the one generation loop
    Mutant(
        "ga-keeps-worst", TUNER,
        "            union.sort(key=lambda ind: ind.raw.f_t)\n",
        "            union.sort(key=lambda ind: ind.raw.f_t, reverse=True)\n",
        "GA survival truncates the union to its worst raw targets",
    ),
    Mutant(
        "ga-prefers-higher", "src/admmo/nsga2.py",
        "        return a if a.raw.f_t < b.raw.f_t else b\n",
        "        return a if a.raw.f_t > b.raw.f_t else b\n",
        "the GA's tournament picks the higher raw target",
    ),
    Mutant(
        "best-not-stored", TUNER,
        "        state.best_f_t = best\n"
        "        state.stagnation = 0\n",
        "        state.stagnation = 0\n",
        "an improvement resets the stagnation count without storing the new best f_t",
    ),
    Mutant(
        "budget-overrun", TUNER,
        "            elif len(ledger.cache) < ledger.budget:\n",
        "            elif len(ledger.cache) <= ledger.budget:\n",
        "a child is measured when the budget is spent",
    ),
    # one mutant per north-star invariant
    Mutant(
        "measure-past-budget", ORACLES,
        "    if len(ledger.cache) >= ledger.budget:\n",
        "    if len(ledger.cache) > ledger.budget:\n",
        "measure charges one configuration more than the budget",
    ),
    Mutant(
        "measure-ignores-cache", ORACLES,
        "    cached = ledger.cache.get(config)\n",
        "    cached = None\n",
        "measure samples the oracle again for a configuration it has charged",
    ),
    Mutant(
        "front-zero-copies-kept", TUNER,
        "    for i in range(len(fronts) - 1):\n",
        "    for i in range(1, len(fronts) - 1):\n",
        "partial retention keeps every copy of a configuration in front 0",
    ),
    Mutant(
        "thresholds-unsorted", TUNER,
        "    return sorted(thresholds)\n",
        "    return thresholds\n",
        "weight_thresholds returns its thresholds in point order, so p' is not monotone in w",
    ),
    Mutant(
        "pool-order", HARNESS,
        "                theirs = pool.map(_run_share, shares[1:]) if pool else ()\n",
        "                theirs = pool.map(_run_share, shares[:0:-1]) if pool else ()\n",
        "the workers' shares come back in reverse, so jobs=3 files each of their runs under another's id",
    ),
    Mutant(
        "run-failure-raised", HARNESS,
        "        return f\"{type(exc).__name__}: {exc}\"\n",
        "        raise RuntimeError(f\"{type(exc).__name__}: {exc}\")\n",
        "a run's failure is raised, not returned, so its share fails before any run"
        " is filed and the case's error names no run",
    ),
    # the grid rules a campaign is built under
    Mutant(
        "campaign-repeated-budgets", RUNSPEC,
        "        if len(set(self.budgets)) != len(self.budgets):\n",
        "        if False:\n",
        "a campaign accepts a budget listed twice and files each of its runs twice",
    ),
    Mutant(
        "campaign-repeated-labels", RUNSPEC,
        "        if len({o.label for o in self.optimizers}) != len(self.optimizers):\n",
        "        if False:\n",
        "a campaign accepts an optimizer label listed twice and files each of its runs twice",
    ),
    # the staircase sort's fronts and the peel order within them
    Mutant(
        "later-fronts-in-population-order", "src/admmo/nsga2.py",
        "    return [[pop[key[-1]] for key in sorted(front)] for front in keys]\n",
        "    return [[pop[i] for i in sorted(key[-1] for key in front)] for front in keys]\n",
        "each later front is in population order, not the peel's order by last dominator",
    ),
    Mutant(
        "copies-split-across-fronts", "src/admmo/nsga2.py",
        "from bisect import bisect_left\n",
        "from bisect import bisect_right as bisect_left\n",
        "a point equal to a front's last point joins the next front, so copies are split",
    ),
    # the NK landscape's rolling table index
    Mutant(
        "nk-next-unwrapped", ORACLES,
        "        next_option = (i + k + 1) % n\n",
        "        next_option = min(i + k + 1, n - 1)\n",
        "the rolling index does not wrap: the last k windows take x_{n-1} as their new digit, not x_0, x_1, ...",
    ),
    Mutant(
        "nk-modulus-wrong-digits", ORACLES,
        "        steps.append((offset, math.prod(shape[1:]), sizes[next_option], next_option))\n",
        "        steps.append((offset, math.prod(shape[:-1]), sizes[next_option], next_option))\n",
        "the roll keeps the index modulo the first k sizes of the window, not the last k",
    ),
    Mutant(
        "nk-head-digits-reversed", ORACLES,
        "    head = tuple((option, math.prod(sizes[option + 1 : k + 1])) for option in range(k + 1))\n",
        "    head = tuple((option, math.prod(sizes[:option])) for option in range(k + 1))\n",
        "position 0's index reads x_0 as the least significant digit",
    ),
    # one computation per quantity: A12 off the rank sum, generation 0 by survival
    Mutant(
        "a12-u-offset", "src/admmo/stats.py",
        "    return (sum(doubled[:n]) - n * (n + 1)) / (2 * n * len(b))\n",
        "    return (sum(doubled[:n]) - n * (n - 1)) / (2 * n * len(b))\n",
        "A12 subtracts n(n-1)/2 from the rank sum, not n(n+1)/2, so it is not U / (n * m)",
    ),
    Mutant(
        "generation-zero-demotes", TUNER,
        "            state.population, params.population_size, DUPLICATES_INDISTINCT\n",
        "            state.population, params.population_size, duplicates_mode\n",
        "generation 0 demotes or removes copies of the initial population under the run's"
        " duplicate policy, so the first mating round sees other ranks",
    ),
    # the measurement table read as one stream
    Mutant(
        "table-lines-from-zero", ORACLES,
        "            numbered = enumerate(handle, 1)\n",
        "            numbered = enumerate(handle)\n",
        "every table error names the line before the one at fault",
    ),
    Mutant(
        "table-comment-as-data", ORACLES,
        "                if line[0] == \"#\" or line[0].isspace() and (\n",
        "                if line[0].isspace() and (\n",
        "a comment after the header that starts in column 1 is read as a row",
    ),
    # the packed table: first occurrence kept, keys in enumeration order
    Mutant(
        "table-later-duplicate-wins", ORACLES,
        "                position = index.setdefault(key, size)\n",
        "                position = index[key] = size\n",
        "a duplicate row is packed again and its sample replaces the first, so a conflicting"
        " duplicate is accepted",
    ),
    Mutant(
        "table-strides-reversed", ORACLES,
        "    return tuple((domain, math.prod(map(len, domains[i + 1 :]))) for i, domain in enumerate(domains))\n",
        "    return tuple((domain, math.prod(map(len, domains[:i]))) for i, domain in enumerate(domains))\n",
        "keys count with the first option fastest, so the first configuration without a row"
        " is not the first in enumeration order",
    ),
    # the run-spec digest from the interpreter's own SHA-256, not OpenSSL's
    Mutant(
        "spec-digest-from-hashlib", RUNSPEC,
        "    from _sha2 import sha256\n",
        "    from hashlib import sha256\n",
        "the run-spec digest comes from hashlib on every Python version, so a table"
        " campaign loads OpenSSL",
    ),
    # the option domain that validation and enumeration read
    Mutant(
        "contains-takes-floats", SPACE,
        "        return (self.kind != INTEGER or isinstance(value, int)) and value in self.domain\n",
        "        return value in self.domain\n",
        "an integer option contains 1.0",
    ),
    Mutant(
        "domain-drops-hi", SPACE,
        "            return range(self.lo, self.hi + 1)\n",
        "            return range(self.lo, self.hi)\n",
        "an integer option's domain lacks its upper bound",
    ),
)


def failures(output: str) -> str:
    """The first failed tests of a pytest ``-rfE`` summary, and how many failed."""
    failed = [
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in output.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    if not failed:
        return "the suite failed without naming a test"
    more = f" and {len(failed) - SHOWN} more" if len(failed) > SHOWN else ""
    return ", ".join(failed[:SHOWN]) + more


def mutated(mutant: Mutant) -> str:
    """The mutant's file with its lines replaced; LookupError unless the
    lines occur in it exactly once as whole lines, so that a line is never
    matched by the tail of a longer one."""
    text = "\n" + (ROOT / mutant.path).read_text()
    old = "\n" + mutant.old
    if text.count(old) != 1:
        raise LookupError(f"its lines are not in {mutant.path} exactly once as whole lines")
    return text.replace(old, "\n" + mutant.new)[1:]


def run_mutant(mutant: Mutant, text: str) -> tuple[bool, str]:
    """(killed, the killing tests or "survived") for one mutant whose file
    reads ``text``."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        (copy / mutant.path).write_text(text)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        command = [
            sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
            "--ignore=tests/test_golden.py",
        ]
        try:
            done = subprocess.run(
                command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT_S} s"
        if done.returncode == 0:
            return False, "survived"
        return True, failures(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    # SIGTERM unwinds as an exit: subprocess.run kills the suite it waits
    # for, and the mutant's temporary copy is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    status = 0
    for m in chosen:
        try:
            text = mutated(m)
        except LookupError as error:
            print(f"{m.name}: error: {error}", flush=True)
            status = 2
            continue
        if args.list:
            print(f"{m.name}: {m.path}: {m.breaks}" + (f" [{m.survives}]" if m.survives else ""))
            continue
        killed, outcome = run_mutant(m, text)
        note = f" (expected: {m.survives})" if m.survives and not killed else ""
        print(f"{m.name}: {'killed by ' if killed else ''}{outcome}{note}", flush=True)
        if not killed and not m.survives and status == 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
