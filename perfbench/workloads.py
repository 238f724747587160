"""The three workloads: how each is built, timed, traced and checked."""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import calibration, checks, inputs, tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
PROBE_ENV = dict(ENV, PYTHONPATH=os.pathsep.join([str(ROOT), ENV["PYTHONPATH"]]))

BUDGET = 200
POPULATION = 10
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 60

WALK_HIGH = 34  # runs at p=1.0, one landscape each
WALK_LOW = 68  # runs at p=0.05, one landscape each
WALK_CHECKED = 2  # runs per p re-run through evolve's union observer
MIX_PER_LABEL = 40  # runs per optimizer label, one landscape each
MIX_P = 0.3
LABELS = ("admmo", "admmo_i", "admmo_r", "admmo_c", "mmo_fixed", "pmo", "ga", "rs")
CAMPAIGN_REPEATS = 10
CAMPAIGN_BUDGETS = (50, 100)
CAMPAIGN_SPECS = 3  # campaigns per round, each with its own base seed
CAMPAIGN_JOBS = 2


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in 0..100) of the samples."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def setup_seconds(build: str, *args: str) -> float:
    """Median, over fresh interpreters, of the time to import the program
    and run ``build``, each scaled by slices the interpreter times itself
    just before and after."""
    code = SETUP_PROBE.format(build=build)
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code, *args],
            cwd=ROOT,
            env=PROBE_ENV,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


SETUP_PROBE = """
import statistics, sys, time
from perfbench import calibration
before = calibration.slices_ms(20)
start = time.perf_counter()
{build}
elapsed = time.perf_counter() - start
after = calibration.slices_ms(20)
print(elapsed * calibration.NOMINAL_SLICE_MS / statistics.median(before + after))
"""

NK_SETUP = """
from admmo import synthetic_landscape
for s in sys.argv[1].split(","):
    synthetic_landscape(12, 2, 4, seed=int(s))
"""

SPEC_SETUP = """
from admmo.runspec import load_runspec
load_runspec(sys.argv[1])
"""


# --- tuning-run workloads ----------------------------------------------------


@dataclass(frozen=True)
class TuneOp:
    """One tuning run: which landscape, which optimizer, which seed."""

    index: int
    landscape_seed: int
    run_seed: int
    label: str
    p: float


def walk_ops(seed: int) -> list[TuneOp]:
    """34 runs at p=1.0 and 68 at p=0.05, each on its own landscape, with a
    p=1.0 run in every third slot so both kinds see the same host phases."""
    count = WALK_HIGH + WALK_LOW
    landscapes = inputs.derive_seeds(inputs.SUITE_SEED, "walk-landscape", count)
    runs = inputs.derive_seeds(seed, "walk-run", count)
    return [
        TuneOp(i, landscapes[i], runs[i] % 1_000_000, "admmo", 1.0 if i % 3 == 0 else 0.05)
        for i in range(count)
    ]


def mix_ops(seed: int) -> list[TuneOp]:
    """Every label MIX_PER_LABEL times, each run on its own landscape."""
    count = MIX_PER_LABEL * len(LABELS)
    landscapes = inputs.derive_seeds(inputs.SUITE_SEED, "mix-landscape", count)
    runs = inputs.derive_seeds(seed, "mix-run", count)
    return [
        TuneOp(i, landscapes[i], runs[i] % 1_000_000, LABELS[i % len(LABELS)], MIX_P)
        for i in range(count)
    ]


def optimizer_spec(label: str):
    from admmo.baselines import OptimizerSpec

    variants = {
        "admmo": {},
        "admmo_i": {"duplicates_mode": "indistinct"},
        "admmo_r": {"duplicates_mode": "remove_all"},
        "admmo_c": {"trigger_mode": "constant"},
    }
    if label in variants:
        return OptimizerSpec(kind="admmo", **variants[label])
    return OptimizerSpec(kind=label)


class TuneWorkload:
    """Runs a fixed list of tuning runs, in rounds, on prebuilt landscapes."""

    def __init__(self, ops: list[TuneOp], via_dispatch: bool):
        from admmo import oracles
        from admmo.tuner import TunerParams

        self.ops = ops
        self.via_dispatch = via_dispatch
        self.landscapes = [
            oracles.synthetic_landscape(inputs.NK_OPTIONS, 2, inputs.NK_K, seed=op.landscape_seed)
            for op in ops
        ]
        self.params = {p: TunerParams(budget=BUDGET, population_size=POPULATION, target_proportion=p)
                       for p in {op.p for op in ops}}
        self.specs = {label: optimizer_spec(label) for label in {op.label for op in ops}}

    def run(self, op: TuneOp):
        # module attributes are looked up per call so that tracing sees them
        from admmo import baselines, tuner

        oracle = self.landscapes[op.index]
        params = self.params[op.p]
        if self.via_dispatch:
            return baselines.run_optimizer(self.specs[op.label], oracle.space, oracle, params, op.run_seed)
        return tuner.run_admmo(oracle.space, oracle, params, op.run_seed)

    def attempt(self, op: TuneOp, outcome: Outcome):
        """Run ``op``; a raising run counts as failed. Returns (run, seconds)."""
        start = time.perf_counter()
        try:
            run = self.run(op)
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            outcome.failed += 1
            print(f"run {op.index} ({op.label}, p={op.p}) failed: {exc!r}", file=sys.stderr)
            run = None
        elapsed = time.perf_counter() - start
        outcome.attempted += 1
        return run, elapsed


def check_tune_runs(workload: TuneWorkload, runs: dict) -> tuple[list[str], list[float], list[float]]:
    """Checks of round one, and each run's final and anytime regret."""
    bits = inputs.nk_bits()
    weights = 1 << np.arange(inputs.NK_OPTIONS - 1, -1, -1)
    problems, finals, aucs = [], [], []
    for op in workload.ops:
        run = runs.get(op.index)
        if run is None:
            continue
        landscape = workload.landscapes[op.index]
        values = inputs.nk_values(landscape._t_tables, bits, landscape.k)
        f_star, f_max = float(values.min()), float(values.max())
        run_id = f"run{op.index}-{op.label}-p{op.p}"
        curve = list(run.best_by_measurement)
        problems += checks.check_curve(run_id, BUDGET, run.measurements_used, curve, run.best_f_t, f_star)
        problems += checks.check_curve_values(run_id, curve, set(values.tolist()))
        reference = float(values[int(np.dot(run.best_config.values, weights))])
        problems += checks.check_best_value(
            run_id, run.best_f_t, reference, landscape.sample(run.best_config).f_t
        )
        if op.label == "rs":
            problems += checks.check_rs_charges(run_id, run.measurements_used, BUDGET, len(bits))
        if curve:
            finals.append(checks.regret(run.best_f_t, f_star, f_max))
            aucs.append(checks.curve_regret_auc(curve, BUDGET, f_star, f_max))
    return problems, finals, aucs


def check_walks(workload: TuneWorkload, runs: dict) -> list[str]:
    """Re-run the first WALK_CHECKED runs of each p through ``evolve`` with a
    union observer and recompute p' at every recorded weight."""
    from admmo import tuner

    problems = []
    for p in sorted(workload.params):
        picked = [op for op in workload.ops if op.p == p and op.index in runs][:WALK_CHECKED]
        for op in picked:
            snapshots = {}

            def observe(iteration, union, snapshots=snapshots):
                raw = np.array([(ind.raw.f_t, ind.raw.f_a) for ind in union])
                snapshots[iteration] = (raw, [ind.config for ind in union])

            oracle = workload.landscapes[op.index]
            rerun = tuner.evolve(oracle.space, oracle, workload.params[p], op.run_seed, union_observer=observe)
            run_id = f"run{op.index}-p{p}"
            if rerun.best_by_measurement != runs[op.index].best_by_measurement:
                problems.append(f"{run_id}: evolve with an observer differs from run_admmo")
            problems += checks.check_walk(run_id, snapshots, rerun.trajectory)
    return problems


def measure_tune(workload: TuneWorkload, seconds: float, check_walk: bool) -> Outcome:
    """Repeat the round of runs while another round still fits in ``seconds``.

    Every round runs the same inputs, so each must reproduce round one.
    """
    outcome = Outcome()
    first: dict = {}
    signature = None
    times, slices, charged = [], [], 0
    window_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        results = []
        for op in workload.ops:
            slices.append(calibration.slice_ms())
            run, elapsed = workload.attempt(op, outcome)
            times.append(elapsed)
            if run is not None:
                charged += run.measurements_used
                results.append((op.index, run.best_f_t, run.measurements_used))
                if signature is None:
                    first[op.index] = run
        if signature is None:
            signature = results
        elif results != signature:
            outcome.problems.append("a later round did not reproduce round one")
        now = time.perf_counter()
        if (now - window_start) + (now - round_start) > seconds:
            break
    slices.append(calibration.slice_ms())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report_raw(times, charged, slices)
    times = calibration.scale(times, slices)

    problems, finals, aucs = check_tune_runs(workload, first)
    outcome.problems += problems
    if check_walk:
        outcome.problems += check_walks(workload, first)
    outcome.metrics.update(
        {
            "measurements_per_s": (charged / sum(times), "1/s"),
            "run_ms.p50": (percentile(times, 50) * 1e3, "ms"),
            "run_ms.p90": (percentile(times, 90) * 1e3, "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
            "regret.mean": (statistics.fmean(finals), "ratio"),
            "regret.auc": (statistics.fmean(aucs), "ratio"),
        }
    )
    return outcome


def report_raw(times: list[float], charged: int, slices: list[float]) -> None:
    """Unscaled figures and the host speed, for the log."""
    print(
        f"raw: {len(times)} ops, {charged / sum(times):.1f} measurements/s, "
        f"p50 {percentile(times, 50) * 1e3:.2f} ms, p90 {percentile(times, 90) * 1e3:.2f} ms; "
        f"calibration slice median {statistics.median(slices):.4f} ms "
        f"(nominal {calibration.NOMINAL_SLICE_MS} ms)",
        file=sys.stderr,
    )


def trace_tune(workload: TuneWorkload) -> Outcome:
    """One round, each run once untraced and once traced, back to back."""
    outcome = Outcome()
    tracer = tracing.Tracer()
    plain = traced = 0.0
    runs = {}
    for op in workload.ops:
        run, elapsed = workload.attempt(op, outcome)
        plain += elapsed
        with tracing.install(tracer):
            again, elapsed = workload.attempt(op, outcome)
        traced += elapsed
        if run is not None:
            runs[op.index] = run
            if again is not None and again != run:
                outcome.problems.append(f"run {op.index}: the traced run differs from the untraced one")
    outcome.problems += check_tune_runs(workload, runs)[0]
    outcome.metrics.update(layer_metrics(tracer, traced / plain - 1.0))
    print("\n".join(tracer.table()), file=sys.stderr)
    return outcome


def tune_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    ops = walk_ops(seed) if name == "tune-walk" else mix_ops(seed)
    workload = TuneWorkload(ops, via_dispatch=name == "tune-mix")
    if trace:
        return trace_tune(workload)
    setup = setup_seconds(NK_SETUP, ",".join(str(op.landscape_seed) for op in ops))
    outcome = measure_tune(workload, seconds, check_walk=name == "tune-walk")
    outcome.metrics["setup_s"] = (setup, "s")
    return outcome


# --- campaign-table ----------------------------------------------------------


def _process_tree(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        current = todo.pop()
        found.append(current)
        try:
            text = Path(f"/proc/{current}/task/{current}/children").read_text()
        except OSError:
            continue
        todo.extend(int(c) for c in text.split())
    return found


def _high_water_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


@dataclass(frozen=True)
class CliRun:
    code: int
    seconds: float  # raw wall time
    speed: float  # mean host speed over the run, 1.0 at the nominal speed
    peak_mb: float  # summed peak resident memory of the process and its workers


def run_cli(args: list[str], log: Path) -> CliRun:
    """Run ``python -m admmo ARGS`` while sampling, from a thread of this
    process, the memory of its process tree and the speed of every CPU."""
    peaks: dict[int, int] = {}
    speeds: list[float] = []
    stop = threading.Event()

    def sample(pid: int) -> None:
        ticks = 0
        while not stop.is_set():
            for child in _process_tree(pid):
                peaks[child] = max(peaks.get(child, 0), _high_water_kb(child))
            if ticks % 5 == 0:
                speeds.append(statistics.fmean(calibration.core_speeds()))
            ticks += 1
            stop.wait(0.02)

    with log.open("a", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "admmo", *args],
            cwd=ROOT,
            env=ENV,
            stdout=out,
            stderr=out,
            start_new_session=True,
        )
        sampler = threading.Thread(target=sample, args=(proc.pid,), daemon=True)
        sampler.start()
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the pool workers too
            code = proc.wait()
        elapsed = time.perf_counter() - start
        stop.set()
        sampler.join()
    speed = statistics.fmean(speeds or calibration.core_speeds())
    return CliRun(code, elapsed, speed, sum(peaks.values()) / 1024)


@dataclass
class CampaignInputs:
    specs: list[Path]
    table: inputs.GeneratedTable

    @property
    def table_values(self) -> set:
        return {rt for rt, _ in self.table.rows.values()}


def campaign_inputs(seed: int, scratch: Path) -> CampaignInputs:
    table = inputs.generate_table(inputs.SUITE_SEED)
    specs = inputs.write_campaign_inputs(
        scratch / "inputs", table, seed, CAMPAIGN_REPEATS, CAMPAIGN_BUDGETS, CAMPAIGN_SPECS
    )
    return CampaignInputs(specs, table)


def campaign_regrets(out_dir: Path, table: inputs.GeneratedTable) -> tuple[list[float], list[float], int]:
    """Final and anytime regret of every listed run, and charged measurements."""
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    finals, aucs, charged = [], [], 0
    for case_id, label, budget, rep, run_id in checks.run_ids(summary):
        curve = [float(r["best_f_t_raw"]) for r in checks.read_table(out_dir / "convergence" / f"{run_id}.csv")]
        charged += len(curve)
        finals.append(checks.regret(curve[-1], table.f_star, table.f_max))
        aucs.append(checks.curve_regret_auc(curve, budget, table.f_star, table.f_max))
    return finals, aucs, charged


def check_campaign_dir(out_dir: Path, data: CampaignInputs) -> list[str]:
    problems = checks.check_campaign(out_dir, data.table_values, data.table.f_star, data.table.space_size)
    if not problems:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        problems += checks.check_report(out_dir / "report", summary)
    return problems


def measure_campaign(data: CampaignInputs, scratch: Path, seconds: float) -> Outcome:
    """A round is ``admmo bench --jobs 2`` then ``admmo report``, as separate
    processes, for each spec; rounds repeat while another still fits in
    ``seconds``, and each must reproduce the first."""
    outcome = Outcome()
    times, raw, speeds, peaks, done = [], [], [], [], []
    log = scratch / "cli.log"
    window_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, spec in enumerate(data.specs):
            out_dir = scratch / f"campaign{outcome.attempted}"
            bench = run_cli(["bench", str(spec), "--jobs", str(CAMPAIGN_JOBS), "--out", str(out_dir)], log)
            report = run_cli(["report", str(out_dir)], log)
            outcome.attempted += 1
            if bench.code or report.code:
                outcome.failed += 1
                print(f"{out_dir.name}: bench exit {bench.code}, report exit {report.code}", file=sys.stderr)
                continue
            times.append(bench.seconds * bench.speed + report.seconds * report.speed)
            raw.append(bench.seconds + report.seconds)
            speeds += [bench.speed, report.speed]
            peaks.append(max(bench.peak_mb, report.peak_mb))
            done.append((i, out_dir))
        now = time.perf_counter()
        if (now - window_start) + (now - round_start) > seconds:
            break
    if not done:
        return outcome

    firsts: dict[int, Path] = {}
    finals, aucs, charged = [], [], {}
    for i, out_dir in done:
        if i not in firsts:
            firsts[i] = out_dir
            outcome.problems += check_campaign_dir(out_dir, data)
            spec_finals, spec_aucs, charged[i] = campaign_regrets(out_dir, data.table)
            finals += spec_finals
            aucs += spec_aucs
        elif (out_dir / "summary.json").read_bytes() != (firsts[i] / "summary.json").read_bytes():
            outcome.problems.append(f"{out_dir.name}: summary differs from the first run of spec {i}")
    total = sum(charged[i] for i, _ in done)
    report_raw(raw, total, [calibration.NOMINAL_SLICE_MS / s for s in speeds])
    outcome.metrics.update(
        {
            "measurements_per_s": (total / sum(times), "1/s"),
            "run_ms.p50": (percentile(times, 50) * 1e3, "ms"),
            "run_ms.p90": (percentile(times, 90) * 1e3, "ms"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
            "regret.mean": (statistics.fmean(finals), "ratio"),
            "regret.auc": (statistics.fmean(aucs), "ratio"),
        }
    )
    return outcome


def _in_process_campaign(data: CampaignInputs, out_dir: Path, jobs: int) -> tuple[bool, float]:
    from admmo import cli

    start = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        ok = cli.main(["bench", str(data.specs[0]), "--jobs", str(jobs), "--out", str(out_dir)]) == 0
        ok = cli.main(["report", str(out_dir)]) == 0 and ok
    return ok, time.perf_counter() - start


def trace_campaign(data: CampaignInputs, scratch: Path) -> Outcome:
    """The campaign in this process, untraced then traced, at --jobs 2 for
    the parent-side layers and at --jobs 1 for the worker-side ones, whose
    spans at --jobs 2 would stay in the pool's processes."""
    outcome = Outcome()
    plain = traced = 0.0
    tracers = {}
    summaries = set()
    for jobs in (CAMPAIGN_JOBS, 1):
        for mode in ("plain", "traced"):
            out_dir = scratch / f"campaign-j{jobs}-{mode}"
            tracer = tracing.Tracer()
            with tracing.install(tracer) if mode == "traced" else contextlib.nullcontext():
                ok, elapsed = _in_process_campaign(data, out_dir, jobs)
            outcome.attempted += 1
            if not ok:
                outcome.failed += 1
                continue
            if mode == "plain":
                plain += elapsed
            else:
                traced += elapsed
                tracers[jobs] = tracer
            summaries.add((out_dir / "summary.json").read_bytes())
    if len(summaries) > 1:
        outcome.problems.append("summaries differ between --jobs settings or with tracing")
    outcome.problems += check_campaign_dir(scratch / "campaign-j1-traced", data)
    metrics = layer_metrics(tracers[1], traced / plain - 1.0)
    parent = tracers[CAMPAIGN_JOBS]
    metrics["harness.run_campaign.ms"] = (parent.ms("harness.run_campaign"), "ms")
    metrics["harness.dispatch.bytes"] = (parent.counters.get("harness.dispatch.bytes", 0), "bytes")
    outcome.metrics.update(metrics)
    for jobs, tracer in tracers.items():
        print(f"--- spans at --jobs {jobs}", file=sys.stderr)
        print("\n".join(tracer.table()), file=sys.stderr)
    return outcome


def campaign_workload(seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    data = campaign_inputs(seed, scratch)
    if trace:
        return trace_campaign(data, scratch)
    setup = setup_seconds(SPEC_SETUP, str(data.specs[0]))
    outcome = measure_campaign(data, scratch, seconds)
    outcome.metrics["setup_s"] = (setup, "s")
    return outcome


# --- per-layer metrics ---------------------------------------------------------


def layer_metrics(tracer: tracing.Tracer, overhead: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from one traced pass; layers the pass never
    entered read 0."""
    c = tracer.counters
    adapt_calls = tracer.calls("tuner.adapt_weight")
    run_ms = sum(sum(v) for v in tracer.samples.values())
    draws = c.get("tuner.trigger.draws", 0)
    offspring = c.get("oracles.offspring", 0)
    metrics = {
        "tuner.adapt_weight.ms": (tracer.ms("tuner.adapt_weight"), "ms"),
        "tuner.adapt_weight.calls": (adapt_calls, "count"),
        "tuner.adapt_weight.share": (tracer.ms("tuner.adapt_weight") / run_ms if run_ms else 0.0, "ratio"),
        "tuner.proportion_evals": (c.get("tuner.proportion_evals", 0), "count"),
        "tuner.proportion_evals_per_adapt": (
            c.get("tuner.proportion_evals", 0) / adapt_calls if adapt_calls else 0.0,
            "ratio",
        ),
        "tuner.trigger.fired_per_draw": (c.get("tuner.trigger.fired", 0) / draws if draws else 0.0, "ratio"),
        "tuner.survival.ms": (tracer.ms("tuner.select_survivors"), "ms"),
        "nsga2.nondominated_sort.ms": (tracer.ms("nsga2.nondominated_sort"), "ms"),
        "nsga2.nondominated_sort.calls": (tracer.calls("nsga2.nondominated_sort"), "count"),
        "nsga2.nondominated_sort.pairs": (c.get("nsga2.nondominated_sort.pairs", 0), "count"),
        "nsga2.crowding_distance.ms": (tracer.ms("nsga2.crowding_distance"), "ms"),
        "nsga2.variation.ms": (
            sum(tracer.ms(f"nsga2.{op}") for op in ("binary_tournament", "uniform_crossover", "boundary_mutation")),
            "ms",
        ),
        "mmo.compute_meta_union.ms": (tracer.ms("mmo.compute_meta_union"), "ms"),
        "mmo.compute_meta_union.calls": (tracer.calls("mmo.compute_meta_union"), "count"),
        "mmo.normalize_union.ms": (tracer.ms("mmo.normalize_union"), "ms"),
        "oracles.measure.ms": (tracer.ms("oracles.measure"), "ms"),
        "oracles.measure.calls": (tracer.calls("oracles.measure"), "count"),
        "oracles.offspring_cache_hits_per_offspring": (
            c.get("oracles.offspring_cache_hits", 0) / offspring if offspring else 0.0,
            "ratio",
        ),
        "oracles.load_table.ms": (tracer.ms("oracles.load_table"), "ms"),
        "space.random_config.ms": (tracer.ms("space.random_config"), "ms"),
    }
    for label in LABELS:
        samples = tracer.samples.get(f"run.{label}")
        metrics[f"baselines.run_ms.p50.{label}"] = (statistics.median(samples) if samples else 0.0, "ms")
    metrics.update(
        {
            "harness.dispatch.bytes": (c.get("harness.dispatch.bytes", 0), "bytes"),
            "harness.run_campaign.ms": (tracer.ms("harness.run_campaign"), "ms"),
            "harness.campaign_summary.ms": (tracer.ms("harness.campaign_summary"), "ms"),
            "stats.wilcoxon_rank_sum.ms": (tracer.ms("stats.wilcoxon_rank_sum"), "ms"),
            "stats.wilcoxon_rank_sum.calls": (tracer.calls("stats.wilcoxon_rank_sum"), "count"),
            "stats.a12.ms": (tracer.ms("stats.a12"), "ms"),
            "runspec.load_runspec.ms": (tracer.ms("runspec.load_runspec"), "ms"),
            "cli.write.ms": (tracer.ms("cli._write_csv"), "ms"),
            "cli.files_written": (c.get("cli.files_written", 0), "count"),
            "cli.bytes_written": (c.get("cli.bytes_written", 0), "bytes"),
            "cli.report.ms": (tracer.ms("cli.cmd_report"), "ms"),
            "trace.overhead": (overhead, "ratio"),
        }
    )
    return metrics
