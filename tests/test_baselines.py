"""Baseline and ablation-variant tests."""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmo import (
    BudgetLedger,
    ConfigSpace,
    MeasurementTable,
    OptionSpec,
    OptimizerSpec,
    PerfSample,
    TunerParams,
    run_admmo,
    run_optimizer,
    run_rs,
    synthetic_landscape,
    unique_nondominated_proportion,
)
from admmo import baselines, tuner
from admmo.mmo import Individual
from admmo.tuner import evolve

EVERY_LABEL = (
    OptimizerSpec("admmo"),
    OptimizerSpec("admmo", duplicates_mode="indistinct"),
    OptimizerSpec("admmo", duplicates_mode="remove_all"),
    OptimizerSpec("admmo", trigger_mode="constant"),
    OptimizerSpec("mmo_fixed"),
    OptimizerSpec("pmo"),
    OptimizerSpec("ga"),
    OptimizerSpec("rs"),
)

option_specs = st.one_of(
    st.just(("binary",)),
    st.tuples(st.just("integer"), st.integers(-2, 1), st.integers(1, 3)),
    st.tuples(st.just("categorical"), st.integers(2, 4)),
)


def small_space(kinds) -> ConfigSpace:
    """A space from ``option_specs`` draws, with a categorical option first."""
    options = [OptionSpec.categorical("mode", ("fast", "safe", "lean"))]
    for i, kind in enumerate(kinds):
        if kind[0] == "binary":
            options.append(OptionSpec.binary(f"b{i}"))
        elif kind[0] == "integer":
            options.append(OptionSpec.integer(f"i{i}", kind[1], kind[1] + kind[2]))
        else:
            options.append(OptionSpec.categorical(f"c{i}", [f"l{j}" for j in range(kind[1])]))
    return ConfigSpace(tuple(options))


class TestOptimizerSpec:
    def test_labels(self):
        assert OptimizerSpec("admmo").label == "admmo"
        assert OptimizerSpec("admmo", duplicates_mode="indistinct").label == "admmo_i"
        assert OptimizerSpec("admmo", duplicates_mode="remove_all").label == "admmo_r"
        assert OptimizerSpec("admmo", trigger_mode="constant").label == "admmo_c"
        assert OptimizerSpec("rs").label == "rs"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            OptimizerSpec("cmaes")

    def test_rejects_unknown_modes(self):
        with pytest.raises(ValueError):
            OptimizerSpec("admmo", duplicates_mode="drop")
        with pytest.raises(ValueError):
            OptimizerSpec("admmo", trigger_mode="sometimes")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "pmo", "trigger_mode": "constant"},
            {"kind": "mmo_fixed", "duplicates_mode": "remove_all"},
            {"kind": "ga", "duplicates_mode": "indistinct"},
            {"kind": "admmo", "fixed_w": 2.0},
            {"kind": "rs", "fixed_w": 0.0},
            {"kind": "mmo_fixed", "fixed_w": math.nan},
            {"kind": "mmo_fixed", "fixed_w": math.inf},
            {"kind": "mmo_fixed", "fixed_w": -0.5},
            {"kind": "mmo_fixed", "fixed_w": 1000.5},
        ],
    )
    def test_rejects_flags_its_kind_ignores(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerSpec(**kwargs)

    def test_fixed_weight_bounds_are_inclusive(self):
        assert OptimizerSpec("mmo_fixed", fixed_w=0.0).fixed_w == 0.0
        assert OptimizerSpec("mmo_fixed", fixed_w=1000.0).fixed_w == 1000.0


class TestMmoFixed:
    def test_zero_weight_degenerates_to_target_only_search(self):
        oracle = synthetic_landscape(n_options=10, domain_sizes=2, k=3, seed=21)
        observed = []

        def observer(iteration, union):
            best = min(ind.f_t_norm for ind in union)
            front = [
                ind for ind in union
                if not any(
                    o.g1 <= ind.g1 and o.g2 <= ind.g2 and (o.g1 < ind.g1 or o.g2 < ind.g2)
                    for o in union
                )
            ]
            observed.append(all(ind.f_t_norm == best for ind in front))

        evolve(
            oracle.space,
            oracle,
            TunerParams(budget=50),
            seed=2,
            spec=OptimizerSpec("mmo_fixed", fixed_w=0.0),
            union_observer=observer,
        )
        assert observed and all(observed)

    def test_matches_adaptive_run_when_trigger_and_duplicates_are_inert(self, monkeypatch):
        monkeypatch.setattr(tuner, "TRIGGER_OFFSET", 10**9)
        oracle = synthetic_landscape(n_options=20, domain_sizes=2, k=4, seed=31)
        duplicate_iterations = []

        def observer(iteration, union):
            configs = [ind.config for ind in union]
            if len(set(configs)) != len(configs):
                duplicate_iterations.append(iteration)

        adaptive = evolve(
            oracle.space,
            oracle,
            TunerParams(budget=40),
            seed=0,
            spec=OptimizerSpec("admmo"),
            union_observer=observer,
        )
        fixed = run_optimizer(
            OptimizerSpec("mmo_fixed", fixed_w=1.0),
            oracle.space,
            oracle,
            TunerParams(budget=40),
            seed=0,
        )
        assert duplicate_iterations == []
        assert adaptive.trajectory == fixed.trajectory
        assert adaptive.best_config == fixed.best_config

    def test_larger_fixed_weight_never_lowers_the_proportion(self):
        oracle = synthetic_landscape(n_options=10, domain_sizes=2, k=3, seed=22)
        unions = []

        def observer(iteration, union):
            unions.append(
                [(ind.config, ind.f_t_norm, ind.f_a_norm) for ind in union]
            )

        evolve(
            oracle.space,
            oracle,
            TunerParams(budget=60),
            seed=5,
            spec=OptimizerSpec("mmo_fixed", fixed_w=1.0),
            union_observer=observer,
        )
        assert unions
        for snapshot in unions:
            rebuilt = []
            for config, ft, fa in snapshot:
                ind = Individual(config, PerfSample(0.0, 0.0))
                ind.f_t_norm, ind.f_a_norm = ft, fa
                rebuilt.append(ind)
            low = unique_nondominated_proportion(rebuilt, 1.0).value
            high = unique_nondominated_proportion(rebuilt, 10.0).value
            assert high >= low


class TestPmo:
    def test_perfectly_correlated_objectives_reduce_to_level_sets(self):
        oracle = synthetic_landscape(
            n_options=10, domain_sizes=2, k=3, seed=23, correlation=1.0
        )
        checks = []

        def observer(iteration, union):
            best = min(ind.f_t_norm for ind in union)
            front = [
                ind for ind in union
                if not any(
                    o.g1 <= ind.g1 and o.g2 <= ind.g2 and (o.g1 < ind.g1 or o.g2 < ind.g2)
                    for o in union
                )
            ]
            checks.append(all(ind.f_t_norm == best for ind in front))

        evolve(
            oracle.space,
            oracle,
            TunerParams(budget=50),
            seed=3,
            spec=OptimizerSpec("pmo"),
            union_observer=observer,
        )
        assert checks and all(checks)

    def test_anti_correlated_objectives_make_unique_points_nondominated(self):
        oracle = synthetic_landscape(
            n_options=10, domain_sizes=2, k=3, seed=24, correlation=-1.0
        )
        checks = []

        def observer(iteration, union):
            seen = {}
            for ind in union:
                seen.setdefault(ind.config, ind)
            unique = list(seen.values())
            nondominated = [
                ind for ind in unique
                if not any(
                    o.g1 <= ind.g1 and o.g2 <= ind.g2 and (o.g1 < ind.g1 or o.g2 < ind.g2)
                    for o in unique
                )
            ]
            checks.append(len(nondominated) == len(unique))

        evolve(
            oracle.space,
            oracle,
            TunerParams(budget=50),
            seed=4,
            spec=OptimizerSpec("pmo"),
            union_observer=observer,
        )
        assert checks and all(checks)

    def test_budget_equal_population_returns_best_of_init(self):
        oracle = synthetic_landscape(n_options=20, domain_sizes=2, k=3, seed=25)
        params = TunerParams(budget=10)
        run = run_optimizer(OptimizerSpec("pmo"), oracle.space, oracle, params, seed=6)
        assert len(run.trajectory) == 1
        assert run.best_f_t == min(run.best_by_measurement)


def sixteen_point_table():
    space = ConfigSpace(
        (
            OptionSpec.binary("a"),
            OptionSpec.binary("b"),
            OptionSpec.binary("c"),
            OptionSpec.binary("d"),
        )
    )
    rows = {
        cfg: PerfSample(float(i % 7) + i / 100.0, float((16 - i) % 5))
        for i, cfg in enumerate(space.enumerate_all())
    }
    return space, MeasurementTable(space=space, rows=rows)


class TestRandomSearch:
    def test_exhausting_the_space_finds_the_optimum(self):
        space, table = sixteen_point_table()
        run = run_rs(space, table, TunerParams(budget=100), seed=0)
        assert run.measurements_used == 16
        assert run.best_f_t == table.best_f_t()

    def test_budget_one_returns_first_draw(self):
        space, table = sixteen_point_table()
        run = run_rs(space, table, TunerParams(budget=1), seed=9)
        assert run.measurements_used == 1
        assert len(run.best_by_measurement) == 1
        assert run.best_f_t == run.best_by_measurement[0]

    def test_duplicate_draws_never_charge(self):
        space, table = sixteen_point_table()
        for budget in (5, 12, 16, 400):
            run = run_rs(space, table, TunerParams(budget=budget), seed=1)
            assert run.measurements_used == min(budget, 16)


class TestGa:
    def test_best_is_monotone_and_matches_measurements(self):
        oracle = synthetic_landscape(n_options=10, domain_sizes=2, k=3, seed=26)
        run = evolve(oracle.space, oracle, TunerParams(budget=80), 7, OptimizerSpec("ga"))
        bests = [rec.best_f_t_raw for rec in run.trajectory]
        assert all(x >= y for x, y in zip(bests, bests[1:]))
        assert run.best_f_t == run.best_by_measurement[-1]
        assert run.measurements_used <= 80

    def test_survivors_are_the_best_raw_targets_of_each_union(self, monkeypatch):
        # the parents of each generation are the stable truncation, on the raw
        # target, of the previous generation's parents and offspring
        generations = []
        breed = tuner.breed

        def recorded_breed(state, *args):
            parents = list(state.population)
            offspring = breed(state, *args)
            generations.append((parents, offspring))
            return offspring

        monkeypatch.setattr(tuner, "breed", recorded_breed)
        oracle = synthetic_landscape(n_options=10, domain_sizes=2, k=3, seed=26)
        params = TunerParams(budget=80)
        evolve(oracle.space, oracle, params, 7, OptimizerSpec("ga"))
        assert len(generations) > 2
        for (parents, offspring), (survivors, _) in zip(generations, generations[1:]):
            union = sorted(parents + offspring, key=lambda ind: ind.raw.f_t)
            expected = union[: params.population_size]
            assert len(survivors) == len(expected)
            assert all(s is e for s, e in zip(survivors, expected))

    def test_unimodal_single_option_always_solved(self):
        # unimodal with the optimum at the domain boundary, which boundary
        # mutation can always reach
        space = ConfigSpace((OptionSpec.integer("v", 0, 20),))
        rows = {
            cfg: PerfSample(float(20 - cfg.values[0]), float(cfg.values[0]))
            for cfg in space.enumerate_all()
        }
        table = MeasurementTable(space=space, rows=rows)
        solved = sum(
            evolve(space, table, TunerParams(budget=50), s, OptimizerSpec("ga")).best_f_t == 0.0
            for s in range(100)
        )
        assert solved >= 95

    def test_selection_solves_a_counting_problem(self):
        # f_t counts the zeros of ten binary options and f_a is flat, so only
        # selection on f_t leads to all ones within 60 measurements: 86 of
        # these seeds get there, 3 when survival keeps the worst
        space = ConfigSpace(tuple(OptionSpec.binary(f"x{i}") for i in range(10)))
        rows = {cfg: PerfSample(float(cfg.values.count(0)), 0.0) for cfg in space.enumerate_all()}
        table = MeasurementTable(space=space, rows=rows)
        solved = sum(
            evolve(space, table, TunerParams(budget=60), s, OptimizerSpec("ga")).best_f_t == 0.0
            for s in range(100)
        )
        assert solved >= 70

    def test_no_variation_terminates_via_stall_cap(self, monkeypatch):
        monkeypatch.setattr(tuner, "MUTATION_RATE", 0.0)
        monkeypatch.setattr(tuner, "CROSSOVER_RATE", 0.0)
        monkeypatch.setattr(tuner, "STALL_ITERATION_CAP", 20)
        oracle = synthetic_landscape(n_options=4, domain_sizes=2, k=1, seed=27)
        params = TunerParams(budget=1000)
        run = evolve(oracle.space, oracle, params, 8, OptimizerSpec("ga"))
        # only the initial draws can ever be measured
        assert run.measurements_used <= 10


class TestVariants:
    def test_default_variant_is_bit_identical_to_the_tuner(self):
        oracle = synthetic_landscape(n_options=10, domain_sizes=2, k=3, seed=28)
        params = TunerParams(budget=70)
        spec = OptimizerSpec("admmo")
        a = run_optimizer(spec, oracle.space, oracle, params, seed=11)
        b = run_admmo(oracle.space, oracle, params, seed=11)
        assert a.trajectory == b.trajectory
        assert a.best_config == b.best_config
        assert a.best_by_measurement == b.best_by_measurement

    def test_constant_trigger_adapts_from_iteration_one(self):
        # a stagnation count of zero blocks the progressive trigger but not
        # the constant variant
        oracle = synthetic_landscape(n_options=12, domain_sizes=2, k=4, seed=29)
        spec = OptimizerSpec("admmo", trigger_mode="constant")
        run = run_optimizer(spec, oracle.space, oracle, TunerParams(budget=40), seed=12)
        first = run.trajectory[1]
        assert first.o == 0 or first.w != 1.0
        moved = [rec.w for rec in run.trajectory if rec.w != 1.0]
        assert moved

    def test_variants_only_deviate_in_their_flagged_aspect(self):
        oracle = synthetic_landscape(n_options=12, domain_sizes=2, k=4, seed=30)
        params = TunerParams(budget=50)
        runs = {
            label: run_optimizer(
                OptimizerSpec("admmo", **kwargs), oracle.space, oracle, params, seed=13
            )
            for label, kwargs in (
                ("admmo", {}),
                ("admmo_i", {"duplicates_mode": "indistinct"}),
                ("admmo_r", {"duplicates_mode": "remove_all"}),
                ("admmo_c", {"trigger_mode": "constant"}),
            )
        }
        # same initial population for every variant
        first = {label: run.best_by_measurement[:10] for label, run in runs.items()}
        assert len({tuple(v) for v in first.values()}) == 1


def run_with_ledger(spec, space, oracle, params, seed):
    """One run of ``spec`` and the ledger it charged."""
    ledgers = []

    class RecordedLedger(BudgetLedger):
        def __post_init__(self):
            super().__post_init__()
            ledgers.append(self)

    with mock.patch.object(tuner, "BudgetLedger", RecordedLedger), mock.patch.object(
        baselines, "BudgetLedger", RecordedLedger
    ):
        run = run_optimizer(spec, space, oracle, params, seed)
    (ledger,) = ledgers
    return run, ledger


class TestSharedContracts:
    def test_identical_seeds_align_initial_populations(self):
        oracle = synthetic_landscape(n_options=14, domain_sizes=2, k=4, seed=33)
        params = TunerParams(budget=30)
        runs = [
            run_admmo(oracle.space, oracle, params, seed=14),
            run_optimizer(OptimizerSpec("mmo_fixed"), oracle.space, oracle, params, seed=14),
            run_optimizer(OptimizerSpec("pmo"), oracle.space, oracle, params, seed=14),
            evolve(oracle.space, oracle, params, 14, OptimizerSpec("ga")),
        ]
        prefixes = {run.best_by_measurement[:10] for run in runs}
        assert len(prefixes) == 1
        rs = run_rs(oracle.space, oracle, params, seed=14)
        assert rs.best_by_measurement[0] == runs[0].best_by_measurement[0]

    def test_evolve_rejects_random_search(self):
        oracle = synthetic_landscape(n_options=8, domain_sizes=2, k=2, seed=34)
        with pytest.raises(ValueError, match="rs does not run"):
            evolve(oracle.space, oracle, TunerParams(budget=20), 15, OptimizerSpec("rs"))

    def test_dispatch_covers_every_kind(self):
        oracle = synthetic_landscape(n_options=8, domain_sizes=2, k=2, seed=34)
        params = TunerParams(budget=20)
        for kind in ("admmo", "mmo_fixed", "pmo", "rs", "ga"):
            run = run_optimizer(OptimizerSpec(kind), oracle.space, oracle, params, seed=15)
            assert run.optimizer == kind
            assert run.measurements_used <= 20
            assert math.isfinite(run.best_f_t)

    @settings(max_examples=25, deadline=None)
    @given(
        kinds=st.lists(option_specs, min_size=1, max_size=4),
        table_seed=st.integers(0, 2**32 - 1),
        population_size=st.integers(2, 8),
        extra_budget=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_budget_contract_for_every_label(
        self, kinds, table_seed, population_size, extra_budget, seed
    ):
        space = small_space(kinds)
        rng = random.Random(table_seed)
        table = MeasurementTable(
            space, {c: PerfSample(rng.random(), rng.random()) for c in space.enumerate_all()}
        )
        params = TunerParams(budget=population_size + extra_budget, population_size=population_size)
        for spec in EVERY_LABEL:
            run, ledger = run_with_ledger(spec, space, table, params, seed)
            charged = list(ledger.cache)
            assert run.measurements_used == len(charged) <= params.budget
            assert len(set(charged)) == len(charged)
            assert all(space.validate(config) for config in charged)
            assert len(run.best_by_measurement) == run.measurements_used

    @pytest.mark.parametrize("budget", [10, 25, 60, 200])
    def test_ties_go_to_the_first_charged_best(self, budget):
        # 512 configurations whose targets take only four values, so runs
        # meet ties for their best
        space = ConfigSpace(
            (
                OptionSpec.categorical("mode", ("fast", "safe", "lean", "slow")),
                OptionSpec.integer("threads", 0, 7),
                *(OptionSpec.binary(f"b{i}") for i in range(4)),
            )
        )
        params = TunerParams(budget=budget)
        for seed in range(2):
            rng = random.Random(seed)
            table = MeasurementTable(
                space,
                {c: PerfSample(float(rng.randrange(4)), rng.random()) for c in space.enumerate_all()},
            )
            for spec in EVERY_LABEL:
                run, ledger = run_with_ledger(spec, space, table, params, seed)
                least = min(sample.f_t for sample in ledger.cache.values())
                first = next(c for c, sample in ledger.cache.items() if sample.f_t == least)
                assert run.best_config == first
                assert (run.best_f_t, run.best_f_a) == tuple(ledger.cache[first])
                assert run.best_f_t == run.best_by_measurement[-1]
                assert run.trajectory[-1].best_f_t_raw == run.best_f_t
