"""Exact metamorphic relations between two runs.

Each relation changes a run's input in a way that leaves every value the
run compares or normalizes bit-identical, so the two runs must agree
row for row, whatever the tuner's digests are:

* an NK landscape and the table of its enumeration, read back through
  ``load_table`` from shuffled rows with a comment and agreeing
  duplicates, are the same oracle;
* scaling f_t or f_a by a power of two scales a min-max normalization's
  numerator and denominator alike, and keeps every raw f_t comparison;
* a column written negated and loaded as maximized is negated back at
  ingestion, through ``load_table`` and through ``admmo tune`` alike;
* renaming options and categorical levels, in the same order, renames
  the configurations and nothing else;
* the GA reads f_t alone, so any other finite f_a gives the same run.
"""

import dataclasses
import json
import random

import pytest

from admmo import (
    Configuration,
    ConfigSpace,
    MeasurementTable,
    ObjectiveOrientation,
    OptimizerSpec,
    OptionSpec,
    PerfSample,
    TunerParams,
    load_table,
    run_optimizer,
    synthetic_landscape,
)
from admmo.cli import main

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
FLIPS = (ObjectiveOrientation(t_maximize=True), ObjectiveOrientation(a_maximize=True))


def enumerated_table(oracle, path, orientation=ObjectiveOrientation()):
    """``oracle`` written out as a table file, its rows shuffled, with a
    comment line and two agreeing duplicate rows, and read back. A column
    that ``orientation`` maximizes is written negated."""
    names = oracle.space.option_names
    rows = []
    for config in oracle.space.enumerate_all():
        f_t, f_a = orientation.apply(*oracle.sample(config))
        rows.append(",".join([*map(str, config), repr(f_t), repr(f_a)]))
    random.Random(0).shuffle(rows)
    lines = [",".join([*names, "t", "a"]), "# enumerated NK landscape", *rows, rows[0], rows[-1]]
    path.write_text("\n".join(lines) + "\n")
    return load_table(path, oracle.space, "t", "a", orientation)


def categorical(table, option_name, level_name):
    """``table`` over categorical options: option i is ``option_name(i)``,
    and its j-th value is the level ``level_name(i, j)``."""
    domains = [list(opt.domain) for opt in table.space.options]
    levels = [[level_name(i, j) for j in range(len(d))] for i, d in enumerate(domains)]
    space = ConfigSpace(
        tuple(OptionSpec.categorical(option_name(i), lv) for i, lv in enumerate(levels))
    )
    rows = {
        Configuration(lv[d.index(v)] for lv, d, v in zip(levels, domains, config)): sample
        for config, sample in table.rows.items()
    }
    return MeasurementTable(space, rows)


def mapped(table, f):
    """``table`` with every sample replaced by ``f(sample)``."""
    return MeasurementTable(table.space, {c: f(s) for c, s in table.rows.items()})


@pytest.fixture(scope="module", params=list(LANDSCAPES))
def case(request, tmp_path_factory):
    oracle = synthetic_landscape(**LANDSCAPES[request.param])
    table = enumerated_table(oracle, tmp_path_factory.mktemp("table") / "table.csv")
    return oracle, table


@pytest.fixture(scope="module")
def flipped(case, tmp_path_factory):
    """The case's table written with each column in turn negated, and read
    back with that column maximized."""
    oracle, _ = case
    directory = tmp_path_factory.mktemp("flipped")
    return [enumerated_table(oracle, directory / f"{i}.csv", o) for i, o in enumerate(FLIPS)]


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


@pytest.mark.parametrize("spec", EVERY_LABEL, ids=lambda spec: spec.label)
def test_a_negated_column_loaded_as_maximized_gives_the_same_run(case, flipped, spec):
    _, table = case
    bases = runs(spec, table)
    for other_table in flipped:
        for base, other in zip(bases, runs(spec, other_table)):
            assert_same_run(base, other)
            assert other.best_f_a == base.best_f_a


@pytest.mark.parametrize("spec", EVERY_LABEL, ids=lambda spec: spec.label)
def test_renaming_options_and_levels_in_order_gives_the_same_run(case, spec):
    _, table = case
    # the renaming reverses the names' sort order, so a run that sorted
    # configurations by value would differ
    plain = categorical(table, lambda i: f"x{i}", lambda i, j: f"v{j}")
    renamed = categorical(table, lambda i: f"opt{9 - i}", lambda i, j: f"{'zyxw'[j]}{i}")
    rename = dict(zip(plain.rows, renamed.rows))
    for base, other in zip(runs(spec, plain), runs(spec, renamed)):
        assert other.best_config == rename[base.best_config]
        assert_same_run(dataclasses.replace(base, best_config=other.best_config), other)
        assert other.best_f_a == base.best_f_a


def write_tune_spec(directory, oracle, orientation):
    """A run-spec for ``admmo tune`` whose one case is ``oracle``'s
    enumerated table, written as ``orientation`` says."""
    enumerated_table(oracle, directory / "table.csv", orientation)
    options = [
        {"name": opt.name, "kind": opt.kind, "lo": opt.lo, "hi": opt.hi}
        if opt.kind == "integer"
        else {"name": opt.name, "kind": opt.kind}
        for opt in oracle.space.options
    ]
    oracle_doc = {
        "kind": "table", "path": "table.csv", "target_column": "t", "auxiliary_column": "a",
        "maximize_target": orientation.t_maximize, "maximize_auxiliary": orientation.a_maximize,
    }
    spec = {
        "cases": [{"id": "nk", "space": {"options": options}, "oracle": oracle_doc}],
        # pmo, as it compares f_a itself: negating f_a swaps admmo's two
        # meta-objectives, which leaves its dominance and crowding alike
        "optimizers": [{"kind": "pmo"}], "budgets": [60], "seed": 3, "population_size": 6,
    }
    (directory / "spec.json").write_text(json.dumps(spec))
    return directory / "spec.json"


def tune_rows(directory, oracle, orientation):
    """Every line of the trajectory and convergence files ``admmo tune``
    writes, but the spec digest."""
    directory.mkdir()
    spec = write_tune_spec(directory, oracle, orientation)
    assert main(["tune", str(spec), "--out", str(directory / "out")]) == 0
    files = sorted((directory / "out").glob("*/*.csv"))
    assert [f.parent.name for f in files] == ["convergence", "trajectories"]
    return {
        f.relative_to(directory): [
            line for line in f.read_text().splitlines() if not line.startswith("# spec_digest")
        ]
        for f in files
    }


@pytest.mark.parametrize("orientation", FLIPS, ids=["target", "auxiliary"])
def test_tune_writes_the_same_rows_for_a_negated_maximized_column(case, orientation, tmp_path):
    oracle, _ = case
    base = tune_rows(tmp_path / "base", oracle, ObjectiveOrientation())
    assert tune_rows(tmp_path / "flipped", oracle, orientation) == base


def test_the_ga_ignores_the_auxiliary_objective(case):
    _, table = case
    spec = OptimizerSpec("ga")
    rng = random.Random(3)
    replaced = mapped(table, lambda p: PerfSample(p.f_t, rng.uniform(-1e6, 1e6)))
    for base, other in zip(runs(spec, table), runs(spec, replaced)):
        assert_same_run(base, other)
