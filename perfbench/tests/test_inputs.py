"""The reference values the checks rely on are right and reproducible."""

import pytest

from admmo import load_table, synthetic_landscape
from admmo.oracles import ObjectiveOrientation
from admmo.runspec import load_runspec
from perfbench import calibration, inputs


def test_brute_force_nk_values_equal_the_oracle_bit_for_bit():
    landscape = synthetic_landscape(12, 2, 4, seed=17)
    bits = inputs.nk_bits()
    values = inputs.nk_values(landscape._t_tables, bits, landscape.k)
    configs = landscape.space.enumerate_all()
    assert [c.values for c in configs] == [tuple(row) for row in bits.tolist()]
    assert values.tolist() == [landscape.sample(c).f_t for c in configs]


def test_derived_seeds_depend_on_seed_and_purpose_only():
    assert inputs.derive_seeds(3, "walk", 4) == inputs.derive_seeds(3, "walk", 4)
    assert inputs.derive_seeds(3, "walk", 4) != inputs.derive_seeds(4, "walk", 4)
    assert inputs.derive_seeds(3, "walk", 4) != inputs.derive_seeds(3, "mix", 4)


def test_generated_table_is_exhaustive_and_parses_back(tmp_path):
    table = inputs.generate_table(5)
    assert table == inputs.generate_table(5)
    assert table.space_size == 2**inputs.TABLE_BINARY * 8 * 3 * 4
    assert table.f_star == min(rt for rt, _ in table.rows.values()) < table.f_max
    spec_paths = inputs.write_campaign_inputs(tmp_path, table, 5, repeats=2, budgets=(20,), campaigns=2)
    first, second = (load_runspec(p) for p in spec_paths)
    assert first.seed != second.seed and first.budgets == second.budgets
    spec = first
    (case,) = spec.cases
    assert case.space.size() == table.space_size == len(case.oracle)
    loaded = load_table(
        tmp_path / "measurements.csv",
        case.space,
        "runtime",
        "throughput",
        ObjectiveOrientation(a_maximize=True),
    )
    assert {c.values: (s.f_t, -s.f_a) for c, s in loaded.rows.items()} == table.rows


def test_calibration_scales_by_the_local_slice_time():
    nominal = calibration.NOMINAL_SLICE_MS
    assert calibration.scale([1.0, 2.0], [nominal] * 3) == [1.0, 2.0]
    assert calibration.scale([1.0], [2 * nominal, 2 * nominal]) == [0.5]
    with pytest.raises(ValueError):
        calibration.scale([1.0, 2.0], [nominal] * 2)
    assert calibration.slice_ms() > 0
