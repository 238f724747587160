"""Harness tests: campaign execution, normalization pool, speedup, stats glue."""

import functools
import itertools
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context

import pytest

from admmo import (
    BenchCase,
    Campaign,
    CaseResult,
    ConfigSpace,
    Configuration,
    MeasurementTable,
    OptimizerSpec,
    OptionSpec,
    TunerParams,
    TuningRun,
    campaign_summary,
    mean_best_curve,
    normalized_target_performance,
    pairwise_comparisons,
    run_admmo,
    run_campaign,
    run_optimizer,
    speedup,
    synthetic_landscape,
)
from admmo import harness


def fake_run(best_curve, optimizer="x") -> TuningRun:
    curve = tuple(float(v) for v in best_curve)
    return TuningRun(
        optimizer=optimizer,
        best_config=Configuration((0,)),
        best_f_t=curve[-1],
        best_f_a=0.0,
        measurements_used=len(curve),
        trajectory=(),
        best_by_measurement=curve,
    )


def case_with(final_bests: dict[str, dict[int, list[float]]]) -> CaseResult:
    budgets = sorted({b for per in final_bests.values() for b in per})
    repeats = len(next(iter(next(iter(final_bests.values())).values())))
    case = CaseResult("case", tuple(budgets), repeats)
    for label, per_budget in final_bests.items():
        case.runs[label] = {}
        for budget, values in per_budget.items():
            case.runs[label][budget] = [fake_run([v] * budget, optimizer=label) for v in values]
    return case


@dataclass(frozen=True)
class BrokenOracle:
    """A system under test that fails every measurement; module level, so it
    pickles under any start method."""

    space: ConfigSpace

    def sample(self, config):
        raise RuntimeError("dead system under test")


class OracleDown(Exception):
    """An exception that its args cannot rebuild, so it does not unpickle."""

    def __init__(self, host, code):
        super().__init__(f"{host} answered {code}")


@dataclass(frozen=True)
class DownOracle:
    """A system under test whose every measurement raises ``OracleDown``."""

    space: ConfigSpace

    def sample(self, config):
        raise OracleDown("bench-host", 503)


@dataclass(frozen=True)
class DyingOracle:
    """Measures as ``landscape`` in the process that started the pool, and
    ends any pool worker that measures with it."""

    landscape: object

    @property
    def space(self) -> ConfigSpace:
        return self.landscape.space

    def sample(self, config):
        if multiprocessing.parent_process() is not None:
            os._exit(3)
        return self.landscape.sample(config)


def table_case(case_id="table") -> BenchCase:
    """A case replaying every configuration of a 12-option binary space."""
    landscape = synthetic_landscape(n_options=12, domain_sizes=2, k=3, seed=17)
    rows = {}
    for values in itertools.product((0, 1), repeat=12):
        config = Configuration(values)
        rows[config] = landscape.sample(config)
    return BenchCase(case_id, landscape.space, MeasurementTable(landscape.space, rows))


def categorical_table_case() -> BenchCase:
    """A case replaying a space whose last two options are categorical."""
    landscape = synthetic_landscape(n_options=6, domain_sizes=[2, 2, 2, 2, 3, 4], k=2, seed=19)
    codecs, schedulers = ("none", "lz4", "zstd"), ("fifo", "rr", "cfs", "batch")
    options = landscape.space.options[:4] + (
        OptionSpec.categorical("codec", codecs),
        OptionSpec.categorical("sched", schedulers),
    )
    rows = {}
    for config in landscape.space.enumerate_all():
        *flags, codec, sched = config.values
        rows[Configuration((*flags, codecs[codec], schedulers[sched]))] = landscape.sample(config)
    space = ConfigSpace(options)
    return BenchCase("categorical", space, MeasurementTable(space, rows))


RS = (OptimizerSpec("rs"),)


class TestCampaign:
    def make_cases(self):
        oracle_a = synthetic_landscape(n_options=8, domain_sizes=2, k=2, seed=61)
        return (BenchCase("land-a", oracle_a.space, oracle_a),)

    def test_cardinality(self):
        optimizers = (OptimizerSpec("admmo"), OptimizerSpec("rs"))
        results = run_campaign(Campaign(self.make_cases(), optimizers, (30,), repeats=3, seed=100))
        assert len(results) == 1
        runs = results[0].runs
        total = sum(len(v) for per in runs.values() for v in per.values())
        assert total == 6
        assert all(run.trajectory or run.optimizer == "rs" for per in runs.values()
                   for v in per.values() for run in v)

    def test_rerun_reproduces_all_numbers(self):
        optimizers = (OptimizerSpec("admmo"), OptimizerSpec("ga"))
        campaign = Campaign(self.make_cases(), optimizers, (25,), repeats=2, seed=7)
        assert campaign_summary(run_campaign(campaign)) == campaign_summary(run_campaign(campaign))

    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("budgets", "twice", "'budgets' must be distinct, got [20, 20]"),
            ("optimizers", "twice", "optimizer entries must have distinct labels"),
            ("cases", "twice", "case ids must be unique"),
            ("cases", (), "a campaign needs at least one case, optimizer and budget"),
            ("optimizers", (), "a campaign needs at least one case, optimizer and budget"),
            ("budgets", (), "a campaign needs at least one case, optimizer and budget"),
            ("budgets", (20, 5), "every budget must be at least the population size"),
            ("repeats", 0, "repeats must be positive"),
        ],
    )
    def test_a_grid_breaking_a_rule_is_rejected(self, key, value, rule):
        # the rules the run-spec's keys are checked by hold for a campaign
        # built here too; "twice" lists the grid's one entry twice
        grid = dict(cases=self.make_cases(), optimizers=RS, budgets=(20,), repeats=2, seed=0)
        grid[key] = grid[key] * 2 if value == "twice" else value
        with pytest.raises(ValueError) as raised:
            Campaign(**grid)
        assert str(raised.value) == rule

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError) as raised:
            run_campaign(Campaign(self.make_cases(), RS, (20,), 2, 3), jobs=jobs)
        assert str(raised.value) == f"jobs must be at least 1, got {jobs}"

    def test_parallel_jobs_match_sequential(self):
        optimizers = (OptimizerSpec("rs"), OptimizerSpec("ga"))
        campaign = Campaign(self.make_cases(), optimizers, (20,), repeats=2, seed=3)
        seq = run_campaign(campaign, jobs=1)
        for jobs in (2, 3):  # one worker beside this process, then two
            par = run_campaign(campaign, jobs=jobs)
            assert campaign_summary(seq) == campaign_summary(par)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_each_run_sits_at_its_repeat(self, jobs):
        # the CLI names the run at runs[label][budget][rep] by rep, so that
        # position must hold the run at seed campaign.seed + rep
        case = self.make_cases()[0]
        optimizers = (OptimizerSpec("admmo"), OptimizerSpec("ga"), OptimizerSpec("rs"))
        campaign = Campaign((case,), optimizers, (20, 30), 3, 40, p=0.5, population_size=6)
        result = run_campaign(campaign, jobs=jobs)[0]
        for spec in optimizers:
            for budget in (20, 30):
                params = TunerParams(budget, population_size=6, target_proportion=0.5)
                assert result.runs[spec.label][budget] == [
                    run_optimizer(spec, case.space, case.oracle, params, 40 + rep)
                    for rep in range(3)
                ]

    def test_failing_case_reports_error_and_continues(self):
        good = self.make_cases()[0]
        cases = (BenchCase("broken", good.space, BrokenOracle(good.space)), good)
        expected = campaign_summary(run_campaign(Campaign((good,), RS, (15,), 2, 0)))
        for jobs in (1, 2):
            results = run_campaign(Campaign(cases, RS, (15,), 2, 0), jobs=jobs)
            assert results[0].error is not None
            assert "dead system" in results[0].error
            assert "broken__rs__b15__r0" in results[0].error
            assert results[1].error is None
            assert campaign_summary(results[1:]) == expected

    def test_run_error_reads_alike_at_any_jobs(self):
        # a worker's OracleDown would not unpickle in the parent and would
        # break the pool, so jobs=2 must report the run's error as jobs=1 does
        good = self.make_cases()[0]
        cases = (BenchCase("down", good.space, DownOracle(good.space)), good)
        expected = campaign_summary(run_campaign(Campaign((good,), RS, (15,), 2, 0)))
        errors = []
        for jobs in (1, 2):
            results = run_campaign(Campaign(cases, RS, (15,), 2, 0), jobs=jobs)
            errors.append(results[0].error)
            assert results[1].error is None
            assert campaign_summary(results[1:]) == expected
        assert errors[0] == errors[1]
        assert errors[0] == "run down__rs__b15__r0: OracleDown: bench-host answered 503"

    def test_broken_pool_fails_only_its_case(self):
        # the pool's error names no run: none of the case's outcomes came back
        good = self.make_cases()[0]
        dying = BenchCase("dying", good.space, DyingOracle(good.oracle))
        expected = campaign_summary(run_campaign(Campaign((good,), RS, (15,), 2, 0)))
        results = run_campaign(Campaign((dying, good), RS, (15,), 2, 0), jobs=2)
        assert results[0].error.startswith("BrokenProcessPool: ")
        assert "run None" not in results[0].error
        assert results[0].runs == {}
        assert results[1].error is None
        assert campaign_summary(results[1:]) == expected
        assert harness._case is None

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_the_failing_run_is_named_in_either_share(self, monkeypatch, jobs):
        # at jobs=2 run r3 is a worker's, at jobs=3 this process's; a share's
        # outcomes come back whole, so a failure raised while running it
        # would surface before any run is filed, naming none
        def failing_at_r3(spec, space, oracle, params, seed):
            if seed == 20 + 3:
                raise RuntimeError("no answer at r3")
            return run_optimizer(spec, space, oracle, params, seed)

        good = self.make_cases()[0]
        monkeypatch.setattr(harness, "run_optimizer", failing_at_r3)
        case = BenchCase("c", good.space, good.oracle)
        results = run_campaign(Campaign((case,), RS, (15,), 6, 20), jobs=jobs)
        assert results[0].error == "run c__rs__b15__r3: RuntimeError: no answer at r3"
        assert results[0].runs == {}

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_a_pool_starts_one_worker_per_share(self, monkeypatch, jobs):
        started = []

        class RecordingPool(ProcessPoolExecutor):
            """Records each pool's worker count and the shares of its ``map``."""

            def __init__(self, max_workers, **kwargs):
                started.append({"workers": max_workers})
                super().__init__(max_workers, **kwargs)

            def map(self, fn, shares, **kwargs):
                shares = list(shares)
                started[-1].update(
                    seeds=[[task[2] for task in share] for share in shares],
                    chunksize=kwargs.get("chunksize", 1),
                )
                return super().map(fn, shares, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        for repeats in (1, 2, 6):
            campaign = Campaign(self.make_cases(), RS, (15,), repeats, 0)
            expected = run_campaign(campaign)[0].runs
            assert run_campaign(campaign, jobs=jobs)[0].runs == expected
        # one task starts no pool and two start one worker, for the second;
        # of six, process w runs every jobs-th from task w, this one first,
        # and each other process is a worker handed its share as one task
        assert started == [
            {"workers": 1, "seeds": [[1]], "chunksize": 1},
            {
                "workers": jobs - 1,
                "seeds": [list(range(w, 6, jobs)) for w in range(1, jobs)],
                "chunksize": 1,
            },
        ]

    def test_tasks_do_not_carry_the_case(self, monkeypatch):
        sizes = []

        class TaskSizePool(ProcessPoolExecutor):
            """Records the pickled size of every task in the shares handed to ``map``."""

            def map(self, fn, shares, **kwargs):
                shares = list(shares)
                sizes.extend(len(pickle.dumps(task)) for share in shares for task in share)
                return super().map(fn, shares, **kwargs)

        case = table_case()
        assert len(case.oracle) == 4096
        monkeypatch.setattr(harness, "ProcessPoolExecutor", TaskSizePool)
        optimizers = (OptimizerSpec("rs"), OptimizerSpec("admmo"))
        results = run_campaign(Campaign((case,), optimizers, (20,), repeats=2, seed=5), jobs=2)
        assert results[0].error is None
        assert len(sizes) == 2  # the worker's share: every second of the 4 tasks
        assert max(sizes) < 1024
        assert harness._case is None

    def test_spawned_workers_receive_each_case(self, monkeypatch):
        # spawned workers share no memory with the parent, as on macOS and
        # Windows, so the case must reach them through the pool's initializer
        landscape = synthetic_landscape(n_options=6, domain_sizes=3, k=2, seed=23)
        cases = (table_case(), BenchCase("nk", landscape.space, landscape))
        optimizers = (OptimizerSpec("rs"), OptimizerSpec("admmo"))
        campaign = Campaign(cases, optimizers, (20,), repeats=2, seed=9)
        seq = run_campaign(campaign, jobs=1)
        spawn = functools.partial(ProcessPoolExecutor, mp_context=get_context("spawn"))
        monkeypatch.setattr(harness, "ProcessPoolExecutor", spawn)
        par = run_campaign(campaign, jobs=2)
        assert all(result.error is None for result in par)
        assert campaign_summary(par) == campaign_summary(seq)

    def test_spawned_workers_look_up_categorical_rows(self, monkeypatch):
        # a spawned worker salts string hashes afresh, so a table keyed by
        # configurations holding strings must be rehashed as it arrives
        optimizers = (OptimizerSpec("rs"), OptimizerSpec("admmo"), OptimizerSpec("ga"))
        campaign = Campaign((categorical_table_case(),), optimizers, (30,), repeats=2, seed=4)
        seq = run_campaign(campaign, jobs=1)
        spawn = functools.partial(ProcessPoolExecutor, mp_context=get_context("spawn"))
        monkeypatch.setattr(harness, "ProcessPoolExecutor", spawn)
        par = run_campaign(campaign, jobs=2)
        assert all(result.error is None for result in seq + par)
        assert campaign_summary(par) == campaign_summary(seq)

    def test_smaller_budget_runs_are_not_prefixes_of_larger_ones(self):
        # the adaptation slope depends on the total budget, so a truncated
        # large-budget run can diverge from an independent small-budget run
        oracle = synthetic_landscape(n_options=12, domain_sizes=2, k=4, seed=51)
        big = run_admmo(oracle.space, oracle, TunerParams(budget=200), seed=0)
        small = run_admmo(oracle.space, oracle, TunerParams(budget=100), seed=0)
        assert big.best_by_measurement[:100] != small.best_by_measurement[:100]


class TestNormalizedPerformance:
    def test_min_max_over_the_pool(self):
        case = case_with({"a": {4: [10.0]}, "b": {4: [20.0]}, "c": {4: [30.0]}})
        table = normalized_target_performance(case)
        assert table["a"][4] == 0.0
        assert table["b"][4] == 0.5
        assert table["c"][4] == 1.0

    def test_pool_winner_scores_zero(self):
        case = case_with(
            {"best": {4: [1.0, 1.0, 1.0]}, "other": {4: [2.0, 3.0, 2.5]}}
        )
        assert normalized_target_performance(case)["best"][4] == 0.0

    def test_pool_spans_budgets(self):
        case = case_with({"a": {2: [10.0], 4: [0.0]}, "b": {2: [5.0], 4: [5.0]}})
        table = normalized_target_performance(case)
        assert table["a"][2] == 1.0 and table["a"][4] == 0.0
        assert table["b"][2] == 0.5 and table["b"][4] == 0.5

    def test_degenerate_pool_warns_and_zeroes(self):
        case = case_with({"a": {4: [1.0, 1.0]}, "b": {4: [1.0, 1.0]}})
        with pytest.warns(UserWarning):
            table = normalized_target_performance(case)
        assert table["a"][4] == 0.0 and table["b"][4] == 0.0

    def test_affine_invariance(self):
        raw = {"a": {4: [3.0, 5.0]}, "b": {4: [4.0, 6.0]}}
        scaled = {
            label: {b: [2.0 * v - 7.0 for v in vals] for b, vals in per.items()}
            for label, per in raw.items()
        }
        assert normalized_target_performance(case_with(raw)) == normalized_target_performance(
            case_with(scaled)
        )


class TestSpeedup:
    def test_four_to_one(self):
        # counterpart reaches its final value at 400, the reference at 100
        counterpart = [fake_run([5.0] * 399 + [1.0])]
        reference = [fake_run([2.0] * 99 + [1.0] * 301)]
        assert speedup(counterpart, reference, 400) == pytest.approx(4.0)

    def test_identical_curves_give_one(self):
        runs_a = [fake_run([3.0, 2.0, 1.0])]
        runs_b = [fake_run([3.0, 2.0, 1.0])]
        assert speedup(runs_a, runs_b, 3) == 1.0

    def test_not_achieved_is_none(self):
        counterpart = [fake_run([2.0, 1.0, 0.5])]
        reference = [fake_run([3.0, 2.9, 2.8])]
        assert speedup(counterpart, reference, 3) is None

    def test_short_runs_carry_forward(self):
        counterpart = [fake_run([2.0, 1.0])]
        reference = [fake_run([1.0])]
        assert speedup(counterpart, reference, 4) == pytest.approx(2.0)

    def test_affine_invariance(self):
        counterpart = [fake_run([9.0, 4.0, 4.0, 2.0])]
        reference = [fake_run([8.0, 3.0, 2.0, 2.0])]
        base = speedup(counterpart, reference, 4)
        mapped_c = [fake_run([2.0 * v + 5.0 for v in (9.0, 4.0, 4.0, 2.0)])]
        mapped_r = [fake_run([2.0 * v + 5.0 for v in (8.0, 3.0, 2.0, 2.0)])]
        assert speedup(mapped_c, mapped_r, 4) == base

    def test_mean_curve_averages_runs(self):
        runs = [fake_run([4.0, 2.0]), fake_run([2.0, 2.0])]
        assert mean_best_curve(runs, 2) == [3.0, 2.0]


class TestSummary:
    def test_every_pair_and_budget_compared(self):
        case = case_with(
            {
                "admmo": {2: [1.0, 1.1], 4: [0.5, 0.6]},
                "rs": {2: [2.0, 2.1], 4: [1.5, 1.6]},
                "ga": {2: [3.0, 3.1], 4: [2.5, 2.6]},
            }
        )
        comparisons = pairwise_comparisons(case)
        assert len(comparisons) == 3 * 2  # 3 unordered pairs x 2 budgets
        summary = campaign_summary([case])
        entry = summary["cases"]["case"]
        assert entry["comparisons"] == comparisons
        assert len(entry["comparisons"]) == 6
        assert all("effect" in c for c in entry["comparisons"])
        assert set(entry["speedup"]) == {"rs", "ga"}

    def test_failed_case_carries_error(self):
        failed = CaseResult("broken", (10,), 1, error="boom")
        summary = campaign_summary([failed])
        assert summary["cases"]["broken"] == {"error": "boom"}
