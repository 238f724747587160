"""Trace wrappers return what the wrapped function returns, and undo cleanly."""

import pickle

import pytest

from admmo import baselines, harness, nsga2, oracles, space, tuner
from admmo import synthetic_landscape
from admmo.tuner import TunerParams
from perfbench import tracing, workloads


def _double(x, *, plus=0):
    return 2 * x + plus


def test_traced_returns_the_result_unchanged_and_counts_the_call():
    tracer = tracing.Tracer()
    seen = []
    wrapper = tracing.traced(_double, "double", tracer, lambda args, result, ns: seen.append((args, result)))
    assert wrapper(3, plus=1) == 7
    assert wrapper.__wrapped__ is _double
    assert tracer.calls("double") == 1 and tracer.ms("double") >= 0
    assert seen == [((3,), 7)]


def test_traced_propagates_exceptions_and_closes_the_span():
    tracer = tracing.Tracer()
    wrapper = tracing.traced(_double, "double", tracer)
    with pytest.raises(TypeError):
        wrapper("x", plus=1)
    assert tracer.stack == [] and tracer.calls("double") == 1


def test_nested_spans_split_self_time_from_child_time():
    tracer = tracing.Tracer()
    inner = tracing.traced(lambda: sum(range(20_000)), "inner", tracer)
    outer = tracing.traced(lambda: inner() + inner(), "outer", tracer)
    outer()
    (outer_stats,) = [s for (name, _), s in tracer.spans.items() if name == "outer"]
    assert tracer.calls("inner") == 2
    assert outer_stats.child_ns == sum(s.total_ns for (n, _), s in tracer.spans.items() if n == "inner")
    assert 0 <= outer_stats.self_ns <= outer_stats.total_ns


def test_install_swaps_every_home_and_restores_them():
    originals = (tuner.nondominated_sort, nsga2.nondominated_sort, baselines.measure, space.ConfigSpace.random_config)
    with tracing.install(tracing.Tracer()):
        assert tuner.nondominated_sort is nsga2.nondominated_sort
        assert tuner.nondominated_sort.__wrapped__ is originals[1]
        assert baselines.measure is oracles.measure is tuner.measure
        assert space.ConfigSpace.random_config is not originals[3]
    assert (tuner.nondominated_sort, nsga2.nondominated_sort, baselines.measure, space.ConfigSpace.random_config) == originals


@pytest.mark.parametrize("label", workloads.LABELS)
def test_traced_runs_equal_untraced_runs(label):
    oracle = synthetic_landscape(12, 2, 4, seed=9)
    params = TunerParams(budget=40, target_proportion=0.3)
    spec = workloads.optimizer_spec(label)
    plain = baselines.run_optimizer(spec, oracle.space, oracle, params, 4)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        traced = baselines.run_optimizer(spec, oracle.space, oracle, params, 4)
    assert traced == plain
    assert tracer.samples[f"run.{label}"] and tracer.calls("oracles.measure") >= plain.measurements_used


def test_every_layer_metric_is_reported_from_a_traced_run():
    oracle = synthetic_landscape(12, 2, 4, seed=9)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        tuner.run_admmo(oracle.space, oracle, TunerParams(budget=40, target_proportion=1.0), 1)
    metrics = workloads.layer_metrics(tracer, 0.1)
    assert metrics["tuner.adapt_weight.calls"][0] > 0
    assert metrics["tuner.proportion_evals"][0] >= metrics["tuner.adapt_weight.calls"][0]
    assert 0 < metrics["tuner.adapt_weight.share"][0] < 1
    assert metrics["baselines.run_ms.p50.admmo"][0] > 0
    assert metrics["oracles.measure.calls"][0] == 40


def test_dispatch_pool_counts_pickled_tasks_and_returns_results():
    tracer = tracing.Tracer()
    pool_class = tracing._dispatch_pool(tracer)
    items = [(i, "x" * i) for i in range(5)]
    with pool_class(max_workers=1) as pool:
        assert list(pool.map(len, items)) == [2] * 5
    assert tracer.counters["harness.dispatch.bytes"] == sum(len(pickle.dumps(i)) for i in items)
    assert tracer.counters["harness.dispatch.tasks"] == 5
    assert harness.ProcessPoolExecutor is not pool_class


def test_traced_campaign_writes_the_same_files(tmp_path):
    """Covers the wrappers of runspec, load_table, harness, stats and cli."""
    from admmo import cli
    from perfbench import inputs

    table = inputs.generate_table(4)
    (spec,) = inputs.write_campaign_inputs(tmp_path / "in", table, 4, repeats=3, budgets=(20,))
    outputs = {}
    for mode in ("plain", "traced"):
        out = tmp_path / mode
        tracer = tracing.Tracer()
        patches = tracing.install(tracer) if mode == "traced" else tracing.Patches()
        with patches:
            assert cli.main(["bench", str(spec), "--out", str(out)]) == 0
            assert cli.main(["report", str(out)]) == 0
        outputs[mode] = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.*"))}
    assert outputs["plain"] == outputs["traced"]
    assert tracer.calls("stats.wilcoxon_rank_sum") == tracer.calls("stats.a12") == 10
    assert tracer.calls("runspec.load_runspec") == tracer.calls("oracles.load_table") == 1
    assert tracer.counters["cli.files_written"] == len(outputs["traced"]) - 1  # all but summary.json
