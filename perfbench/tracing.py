"""Spans around the program's public functions, recorded from outside it.

A traced function is replaced, in every module that looks it up, by a
wrapper that times the call and hands it to a :class:`Tracer`. Spans are
aggregated in memory by (name, parent name): a walk at p=1.0 makes
hundreds of thousands of calls, too many to keep one record each.
"""

from __future__ import annotations

import functools
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


@dataclass
class Tracer:
    """Aggregated spans plus named counters and per-label samples."""

    spans: dict[tuple[str, str | None], SpanStats] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    stack: list[list] = field(default_factory=list)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def begin(self, name: str) -> None:
        self.stack.append([name, 0])

    def end(self, name: str, elapsed_ns: int) -> None:
        _, child_ns = self.stack.pop()
        parent = self.stack[-1][0] if self.stack else None
        stats = self.spans.setdefault((name, parent), SpanStats())
        stats.calls += 1
        stats.total_ns += elapsed_ns
        stats.child_ns += child_ns
        if self.stack:
            self.stack[-1][1] += elapsed_ns

    def calls(self, name: str) -> int:
        return sum(s.calls for (n, _), s in self.spans.items() if n == name)

    def ms(self, name: str) -> float:
        """Inclusive time in ``name``, not counting calls nested in itself."""
        return sum(
            s.total_ns for (n, parent), s in self.spans.items() if n == name and parent != name
        ) / 1e6

    def table(self) -> list[str]:
        """One line per (span, parent): calls, inclusive and self time."""
        lines = [f"{'span':<34} {'parent':<28} {'calls':>9} {'total_ms':>11} {'self_ms':>11}"]
        for (name, parent), s in sorted(self.spans.items(), key=lambda kv: -kv[1].total_ns):
            lines.append(
                f"{name:<34} {parent or '-':<28} {s.calls:>9} "
                f"{s.total_ns / 1e6:>11.2f} {s.self_ns / 1e6:>11.2f}"
            )
        return lines


def traced(fn, name: str, tracer: Tracer, after=None):
    """A wrapper of ``fn`` that records a span called ``name``.

    ``after(args, result, elapsed_ns)`` runs once the call returns, for
    counters that depend on the inputs, the result or the time. The
    wrapper returns the wrapped function's result unchanged.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            tracer.end(name, elapsed)
        if after is not None:
            after(args, result, elapsed)
        return result

    return wrapper


class Patches:
    """Attribute swaps that are undone in reverse order on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def swap(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False


def _dispatch_pool(tracer: Tracer):
    class MeasuredPool(ProcessPoolExecutor):
        """Counts the pickled size of every task handed to ``map``."""

        def map(self, fn, *iterables, **kwargs):
            materialized = [list(it) for it in iterables]
            for items in materialized:
                for item in items:
                    tracer.count("harness.dispatch.bytes", len(pickle.dumps(item)))
                    tracer.count("harness.dispatch.tasks")
            return super().map(fn, *materialized, **kwargs)

    return MeasuredPool


def install(tracer: Tracer) -> Patches:
    """Swap every traced function of ``admmo`` for its wrapper.

    Functions imported by name into other modules are swapped there too,
    since those modules look them up in their own namespace.
    """
    from admmo import baselines, cli, harness, mmo, nsga2, oracles, runspec, space, stats, tuner

    patches = Patches()

    def wrap(name, homes, after=None):
        original = getattr(homes[0], name.rsplit(".", 1)[-1])
        wrapper = traced(original, name, tracer, after)
        for home in homes:
            patches.swap(home, name.rsplit(".", 1)[-1], wrapper)

    def count_proportion(args, result, elapsed):
        if tracer.inside("tuner.adapt_weight"):
            tracer.count("tuner.proportion_evals")

    def count_trigger(args, result, elapsed):
        tracer.count("tuner.trigger.draws")
        if result:
            tracer.count("tuner.trigger.fired")

    def count_pairs(args, result, elapsed):
        n = len(args[0])
        tracer.count("nsga2.nondominated_sort.pairs", n * (n - 1) // 2)

    def count_cache(args, result, elapsed):
        tracer.count("oracles.offspring")
        if result:
            tracer.count("oracles.offspring_cache_hits")

    def count_write(args, result, elapsed):
        tracer.count("cli.files_written")
        tracer.count("cli.bytes_written", args[0].stat().st_size)

    def record_run(args, result, elapsed):
        tracer.samples.setdefault(f"run.{result.optimizer}", []).append(elapsed / 1e6)

    wrap("tuner.adapt_weight", [tuner])
    wrap("tuner.unique_nondominated_proportion", [tuner], count_proportion)
    wrap("tuner.should_trigger", [tuner], count_trigger)
    wrap("tuner.select_survivors", [tuner])
    wrap("nsga2.nondominated_sort", [nsga2, tuner], count_pairs)
    wrap("nsga2.crowding_distance", [nsga2, tuner])
    for op in ("binary_tournament", "uniform_crossover", "boundary_mutation"):
        wrap(f"nsga2.{op}", [nsga2, tuner] + ([baselines] if op != "binary_tournament" else []))
    wrap("mmo.compute_meta_union", [mmo, tuner])
    wrap("mmo.normalize_union", [mmo, tuner])
    wrap("oracles.measure", [oracles, tuner, baselines])
    wrap("oracles.load_table", [oracles, runspec])
    wrap("stats.wilcoxon_rank_sum", [stats, harness])
    wrap("stats.a12", [stats, harness])
    wrap("runspec.load_runspec", [runspec, cli])
    wrap("harness.run_campaign", [harness, cli])
    wrap("harness.campaign_summary", [harness, cli])
    wrap("cli._write_csv", [cli], count_write)
    wrap("cli.cmd_report", [cli])

    patches.swap(
        oracles.BudgetLedger,
        "is_cached",
        traced(oracles.BudgetLedger.is_cached, "oracles.is_cached", tracer, count_cache),
    )
    patches.swap(
        space.ConfigSpace,
        "random_config",
        traced(space.ConfigSpace.random_config, "space.random_config", tracer),
    )

    wrap("baselines.run_optimizer", [baselines, harness], record_run)
    wrap("tuner.run_admmo", [tuner], record_run)
    patches.swap(harness, "ProcessPoolExecutor", _dispatch_pool(tracer))
    return patches
