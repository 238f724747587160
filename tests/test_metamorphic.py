"""Exact metamorphic relations between two runs.

Each relation changes a run's input in a way that leaves every value the
run compares or normalizes bit-identical, so the two runs must agree
row for row, whatever the tuner's digests are:

* an NK landscape and the table of its enumeration, read back through
  ``load_table`` from shuffled rows with a comment and agreeing
  duplicates, are the same oracle;
* scaling f_t or f_a by a power of two scales a min-max normalization's
  numerator and denominator alike, and keeps every raw f_t comparison;
* the GA reads f_t alone, so any other finite f_a gives the same run.
"""

import random

import pytest

from admmo import (
    MeasurementTable,
    OptimizerSpec,
    PerfSample,
    TunerParams,
    load_table,
    run_optimizer,
    synthetic_landscape,
)

EVERY_LABEL = (
    OptimizerSpec("admmo"),
    OptimizerSpec("admmo", duplicates_mode="indistinct"),
    OptimizerSpec("admmo", duplicates_mode="remove_all"),
    OptimizerSpec("admmo", trigger_mode="constant"),
    OptimizerSpec("mmo_fixed", fixed_w=0.5),
    OptimizerSpec("pmo"),
    OptimizerSpec("ga"),
    OptimizerSpec("rs"),
)
LANDSCAPES = {
    "nk8": dict(n_options=8, domain_sizes=2, k=3, seed=5, correlation=0.3),
    "nk6-mixed": dict(n_options=6, domain_sizes=[3, 2, 4, 2, 2, 3], k=2, seed=9, correlation=0.3),
}
PARAMS = TunerParams(budget=60)
SEEDS = (1, 2)
SCALES = (2.0**7, 2.0**-9)


def enumerated_table(oracle, path):
    """``oracle`` written out as a table file, its rows shuffled, with a
    comment line and two agreeing duplicate rows, and read back."""
    names = oracle.space.option_names
    rows = []
    for config in oracle.space.enumerate_all():
        sample = oracle.sample(config)
        rows.append(",".join([*map(str, config), repr(sample.f_t), repr(sample.f_a)]))
    random.Random(0).shuffle(rows)
    lines = [",".join([*names, "t", "a"]), "# enumerated NK landscape", *rows, rows[0], rows[-1]]
    path.write_text("\n".join(lines) + "\n")
    return load_table(path, oracle.space, "t", "a")


def mapped(table, f):
    """``table`` with every sample replaced by ``f(sample)``."""
    return MeasurementTable(table.space, {c: f(s) for c, s in table.rows.items()})


@pytest.fixture(scope="module", params=list(LANDSCAPES))
def case(request, tmp_path_factory):
    oracle = synthetic_landscape(**LANDSCAPES[request.param])
    table = enumerated_table(oracle, tmp_path_factory.mktemp("table") / "table.csv")
    return oracle, table


def assert_same_run(base, other, t_scale=1.0):
    """``other`` charged and recorded what ``base`` did, its f_t scaled by
    ``t_scale``."""
    assert other.best_config == base.best_config
    assert other.measurements_used == base.measurements_used
    assert [row[:5] for row in other.trajectory] == [row[:5] for row in base.trajectory]
    assert [row.best_f_t_raw for row in other.trajectory] == [
        row.best_f_t_raw * t_scale for row in base.trajectory
    ]
    assert other.best_by_measurement == tuple(x * t_scale for x in base.best_by_measurement)


def runs(spec, oracle):
    return [run_optimizer(spec, oracle.space, oracle, PARAMS, seed) for seed in SEEDS]


@pytest.mark.parametrize("spec", EVERY_LABEL, ids=lambda spec: spec.label)
def test_a_landscape_and_its_enumerated_table_give_the_same_run(case, spec):
    oracle, table = case
    for base, other in zip(runs(spec, oracle), runs(spec, table)):
        assert_same_run(base, other)
        assert other.best_f_a == base.best_f_a


@pytest.mark.parametrize("spec", EVERY_LABEL, ids=lambda spec: spec.label)
def test_power_of_two_scaling_gives_the_same_run(case, spec):
    _, table = case
    bases = runs(spec, table)
    for s in SCALES:
        t_scaled = mapped(table, lambda p: PerfSample(p.f_t * s, p.f_a))
        for base, other in zip(bases, runs(spec, t_scaled)):
            assert_same_run(base, other, t_scale=s)
        a_scaled = mapped(table, lambda p: PerfSample(p.f_t, p.f_a * s))
        for base, other in zip(bases, runs(spec, a_scaled)):
            assert_same_run(base, other)
            assert other.best_f_a == base.best_f_a * s


def test_the_ga_ignores_the_auxiliary_objective(case):
    _, table = case
    spec = OptimizerSpec("ga")
    rng = random.Random(3)
    replaced = mapped(table, lambda p: PerfSample(p.f_t, rng.uniform(-1e6, 1e6)))
    for base, other in zip(runs(spec, table), runs(spec, replaced)):
        assert_same_run(base, other)
