"""Measurement-oracle tests: budget rule, caching, table loading, landscapes."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from admmo import (
    BudgetExhaustedError,
    BudgetLedger,
    ConfigSpace,
    Configuration,
    MeasurementTable,
    ObjectiveOrientation,
    OptionSpec,
    PerfSample,
    TableFormatError,
    TunerParams,
    UnmeasuredConfigurationError,
    load_table,
    measure,
    run_rs,
    synthetic_landscape,
)


def two_bit_space() -> ConfigSpace:
    return ConfigSpace((OptionSpec.binary("a"), OptionSpec.binary("b")))


def table_for(space: ConfigSpace) -> MeasurementTable:
    rows = {
        cfg: PerfSample(float(i), float(10 - i))
        for i, cfg in enumerate(space.enumerate_all())
    }
    return MeasurementTable(space=space, rows=rows)


class TestMeasure:
    def test_only_distinct_configs_charge(self):
        space = two_bit_space()
        oracle = table_for(space)
        ledger = BudgetLedger(budget=10)
        c1, c2 = Configuration((0, 0)), Configuration((0, 1))
        for cfg in (c1, c2, c1):
            measure(oracle, cfg, ledger)
        assert ledger.consumed == 2

    def test_cache_returns_identical_sample(self):
        space = two_bit_space()
        oracle = table_for(space)
        ledger = BudgetLedger(budget=10)
        first = measure(oracle, Configuration((1, 1)), ledger)
        again = measure(oracle, Configuration((1, 1)), ledger)
        assert again is first
        assert ledger.consumed == 1

    def test_budget_exhaustion_signal(self):
        space = two_bit_space()
        oracle = table_for(space)
        ledger = BudgetLedger(budget=1)
        measure(oracle, Configuration((0, 0)), ledger)
        # cached config stays measurable at b = B
        measure(oracle, Configuration((0, 0)), ledger)
        with pytest.raises(BudgetExhaustedError):
            measure(oracle, Configuration((0, 1)), ledger)

    def test_missing_row_error(self):
        space = two_bit_space()
        oracle = MeasurementTable(space=space, rows={})
        with pytest.raises(UnmeasuredConfigurationError):
            measure(oracle, Configuration((0, 0)), BudgetLedger(budget=5))

    def test_invalid_config_rejected(self):
        space = two_bit_space()
        oracle = table_for(space)
        with pytest.raises(ValueError):
            measure(oracle, Configuration((0, 7)), BudgetLedger(budget=5))

    def test_charge_log_matches_consumed(self):
        space = two_bit_space()
        oracle = table_for(space)
        ledger = BudgetLedger(budget=10)
        import random

        rng = random.Random(5)
        for _ in range(50):
            measure(oracle, space.random_config(rng), ledger)
        assert ledger.consumed == len(ledger.charge_log) == len(ledger.cache)
        assert ledger.consumed <= space.size()


class TestOrientation:
    def test_maximize_negates_once(self):
        orientation = ObjectiveOrientation(t_maximize=True, a_maximize=False)
        assert orientation.apply(5.0, 2.0) == (-5.0, 2.0)

    @given(
        f_t=st.floats(-1e6, 1e6),
        f_a=st.floats(-1e6, 1e6),
        t_max=st.booleans(),
        a_max=st.booleans(),
    )
    def test_applying_twice_restores_raw(self, f_t, f_a, t_max, a_max):
        orientation = ObjectiveOrientation(t_maximize=t_max, a_maximize=a_max)
        assert orientation.apply(*orientation.apply(f_t, f_a)) == (f_t, f_a)


class TestLoadTable(object):
    SPACE = ConfigSpace(
        (OptionSpec.binary("cache"), OptionSpec.categorical("mode", ("fast", "safe")))
    )

    def write(self, tmp_path, text):
        path = tmp_path / "table.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_maximize_target_stored_negated(self, tmp_path):
        path = self.write(
            tmp_path,
            "# comment line\n"
            "cache,mode,throughput,latency\n"
            "0,fast,5.0,1.0\n"
            "1,fast,7.0,2.0\n"
            "1,safe,6.0,3.0\n",
        )
        table = load_table(
            path,
            self.SPACE,
            target_column="throughput",
            auxiliary_column="latency",
            orientation=ObjectiveOrientation(t_maximize=True),
        )
        assert table.rows[Configuration((0, "fast"))].f_t == -5.0
        assert table.rows[Configuration((0, "fast"))].f_a == 1.0
        assert len(table) == 3

    def test_header_missing_option_named(self, tmp_path):
        path = self.write(tmp_path, "cache,throughput,latency\n0,5.0,1.0\n")
        with pytest.raises(TableFormatError, match="mode|columns"):
            load_table(path, self.SPACE, "throughput", "latency")

    def test_wrong_option_order_named(self, tmp_path):
        path = self.write(tmp_path, "mode,cache,t,a\nfast,0,5.0,1.0\n")
        with pytest.raises(TableFormatError, match="'cache'"):
            load_table(path, self.SPACE, "t", "a")

    def test_conflicting_duplicate_names_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "cache,mode,t,a\n0,fast,5.0,1.0\n0,fast,9.0,1.0\n",
        )
        with pytest.raises(TableFormatError, match="line 3"):
            load_table(path, self.SPACE, "t", "a")

    def test_identical_duplicate_collapsed(self, tmp_path):
        path = self.write(
            tmp_path,
            "cache,mode,t,a\n0,fast,5.0,1.0\n0,fast,5.0,1.0\n",
        )
        table = load_table(path, self.SPACE, "t", "a")
        assert len(table) == 1

    def test_malformed_value_names_line(self, tmp_path):
        path = self.write(tmp_path, "cache,mode,t,a\n2,fast,5.0,1.0\n")
        with pytest.raises(TableFormatError, match="line 2"):
            load_table(path, self.SPACE, "t", "a")

    def test_repeated_bad_cell_names_its_first_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "cache,mode,t,a\n0,fast,5.0,1.0\n0,slow,5.0,1.0\n1,slow,6.0,1.0\n"
            "0,slow,7.0,1.0\n",
        )
        with pytest.raises(TableFormatError, match=r"^line 3: 'slow' is not a level"):
            load_table(path, self.SPACE, "t", "a")

    @pytest.mark.parametrize(
        "row,message",
        [
            ("9,fast", "line 3: value 9 out of range for option 'threads'"),
            ("2,turbo", "line 3: 'turbo' is not a level of option 'mode'"),
            ("two,fast", "line 3: 'two' is not an integer for option 'threads'"),
        ],
    )
    def test_bad_cell_after_parsed_ones_keeps_its_message(self, tmp_path, row, message):
        space = ConfigSpace(
            (OptionSpec.integer("threads", 1, 4), OptionSpec.categorical("mode", ("fast", "safe")))
        )
        path = self.write(tmp_path, f"threads,mode,t,a\n2,fast,5.0,1.0\n{row},6.0,1.0\n")
        with pytest.raises(TableFormatError) as raised:
            load_table(path, space, "t", "a")
        assert str(raised.value) == message

    def test_two_spellings_of_one_integer_are_one_configuration(self, tmp_path):
        space = ConfigSpace((OptionSpec.integer("threads", 0, 4), OptionSpec.binary("cache")))
        agree = "threads,cache,t,a\n1,01,5.0,1.0\n01,1,5.0,1.0\n 1 ,1,5.0,1.0\n"
        table = load_table(self.write(tmp_path, agree), space, "t", "a")
        assert table.rows == {Configuration((1, 1)): PerfSample(5.0, 1.0)}
        clash = "threads,cache,t,a\n1,1,5.0,1.0\n01,1,6.0,1.0\n"
        with pytest.raises(TableFormatError, match="line 3: conflicting duplicate of line 2"):
            load_table(self.write(tmp_path, clash), space, "t", "a")

    def test_padded_cells_and_crlf_read_as_the_plain_table(self, tmp_path):
        space = ConfigSpace(
            (OptionSpec.integer("threads", 1, 4), OptionSpec.categorical("mode", ("fast", "safe")))
        )
        plain = "threads,mode,t,a\n1,fast,5.0,1.0\n2,safe,-6.5,2.0\n1,safe,7.0,3.0\n"
        padded = (
            " threads ,\tmode, t ,a\t\r\n"
            "  # a padded comment\r\n"
            "1 ,\tfast ,  5.0\t, 1.0\r\n"
            "\t2, safe,-6.5 ,2.0 \r\n"
            "1,safe\t,\t7.0,3.0\r\n"
            " 1 , fast , 5.0 , 1.0 \r\n"
        )
        (tmp_path / "padded.csv").write_bytes(padded.encode())
        orientation = ObjectiveOrientation(t_maximize=True)
        expected = load_table(self.write(tmp_path, plain), space, "t", "a", orientation)
        table = load_table(tmp_path / "padded.csv", space, "t", "a", orientation)
        assert list(table.rows.items()) == list(expected.rows.items())
        assert table.rows[Configuration((2, "safe"))] == PerfSample(6.5, 2.0)

    @pytest.mark.parametrize(
        "row,message",
        [
            (" 9 ,\tfast,6.0,1.0", "line 4: value 9 out of range for option 'threads'"),
            ("2 , turbo\t,6.0,1.0", "line 4: 'turbo' is not a level of option 'mode'"),
            ("\ttwo , fast,6.0,1.0", "line 4: 'two' is not an integer for option 'threads'"),
            (" 2 , fast , bad ,1.0", "line 4: non-numeric objective value"),
        ],
    )
    def test_bad_padded_cell_names_its_own_line(self, tmp_path, row, message):
        space = ConfigSpace(
            (OptionSpec.integer("threads", 1, 4), OptionSpec.categorical("mode", ("fast", "safe")))
        )
        text = f"threads,mode,t,a\r\n2,fast,5.0,1.0\r\n 2 , fast ,5.0,1.0\r\n{row}\r\n"
        with pytest.raises(TableFormatError) as raised:
            load_table(self.write(tmp_path, text), space, "t", "a")
        assert str(raised.value) == message

    def test_non_numeric_objective_names_line(self, tmp_path):
        path = self.write(tmp_path, "cache,mode,t,a\n0,fast,bad,1.0\n")
        with pytest.raises(TableFormatError, match="line 2"):
            load_table(path, self.SPACE, "t", "a")

    def test_objective_columns_any_order(self, tmp_path):
        path = self.write(tmp_path, "cache,mode,a,t\n0,fast,1.0,5.0\n")
        table = load_table(path, self.SPACE, "t", "a")
        assert table.rows[Configuration((0, "fast"))] == PerfSample(5.0, 1.0)

    def test_full_stream_processor_sized_table(self, tmp_path):
        space = ConfigSpace(
            (
                OptionSpec.binary("spouts"),
                OptionSpec.binary("max_spout"),
                OptionSpec.integer("splitters", 1, 4),
                OptionSpec.integer("counters", 1, 6),
                OptionSpec.integer("heap", 0, 4),
                OptionSpec.categorical("scheduler", tuple("abcdef")),
            )
        )
        lines = ["spouts,max_spout,splitters,counters,heap,scheduler,throughput,latency"]
        for i, cfg in enumerate(space.enumerate_all()):
            lines.append(",".join(str(v) for v in cfg.values) + f",{i}.0,{i % 7}.5")
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        table = load_table(path, space, "throughput", "latency")
        assert len(table) == 2880


def reference_tables(sizes, k, seed):
    """The target and auxiliary tables as one ``uniform(size=shape)`` draw per
    position's table, from the two streams of ``SeedSequence(seed)``."""
    n = len(sizes)
    shapes = [tuple(sizes[(i + j) % n] for j in range(k + 1)) for i in range(n)]
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]
    return [tuple(stream.uniform(size=shape) for shape in shapes) for stream in streams]


def reference_sample(t_tables, a_tables, k, correlation, values):
    """The NK objectives by numpy lookups, summed in position order from 0.0."""

    def mean_contribution(tables):
        n = len(values)
        total = 0.0
        for i, table in enumerate(tables):
            total += float(table[tuple(values[(i + j) % n] for j in range(k + 1))])
        return total / n

    f_t, f_a = mean_contribution(t_tables), mean_contribution(a_tables)
    if correlation:
        f_a = correlation * f_t + (1.0 - abs(correlation)) * f_a
    return f_t, f_a


MIXED_SIZES = [2, 3, 5, 2, 4, 2, 3, 2]


class TestNkSample:
    @pytest.mark.parametrize(
        "sizes, k, correlation",
        [
            (MIXED_SIZES, 3, 0.0),
            (MIXED_SIZES, 1, 0.3),
            (MIXED_SIZES, 7, -1.0),
            ([2] * 10, 4, 0.0),
            ([3, 2, 4, 2, 5], 4, 0.3),
        ],
    )
    def test_bit_identical_to_the_numpy_tables(self, sizes, k, correlation):
        landscape = synthetic_landscape(len(sizes), sizes, k, seed=29, correlation=correlation)
        t_tables, a_tables = reference_tables(sizes, k, seed=29)
        copy = pickle.loads(pickle.dumps(landscape))
        for config in landscape.space.enumerate_all():
            expected = reference_sample(t_tables, a_tables, k, correlation, config.values)
            for oracle in (landscape, copy):
                sample = oracle.sample(config)
                assert (sample.f_t, sample.f_a) == expected

    @pytest.mark.parametrize("sizes, k", [(MIXED_SIZES, 3), (MIXED_SIZES, 1), ([2] * 6, 5)])
    def test_tables_are_the_per_table_draws(self, sizes, k):
        landscape = synthetic_landscape(len(sizes), sizes, k, seed=31)
        t_tables, a_tables = reference_tables(sizes, k, seed=31)
        for got, expected in ((landscape._t_tables, t_tables), (landscape._a_tables, a_tables)):
            assert len(got) == len(expected) == len(sizes)
            for table, reference in zip(got, expected):
                assert table.shape == reference.shape
                assert np.array_equal(table, reference)


class TestSyntheticLandscape:
    def test_zero_ruggedness_rejected(self):
        with pytest.raises(ValueError):
            synthetic_landscape(n_options=6, domain_sizes=2, k=0, seed=1)

    def test_k_must_be_below_n(self):
        with pytest.raises(ValueError):
            synthetic_landscape(n_options=4, domain_sizes=2, k=4, seed=1)

    def test_same_seed_same_landscape(self):
        a = synthetic_landscape(n_options=6, domain_sizes=2, k=2, seed=11)
        b = synthetic_landscape(n_options=6, domain_sizes=2, k=2, seed=11)
        for cfg in a.space.enumerate_all():
            assert a.sample(cfg) == b.sample(cfg)

    def test_different_seeds_differ(self):
        a = synthetic_landscape(n_options=6, domain_sizes=2, k=2, seed=11)
        b = synthetic_landscape(n_options=6, domain_sizes=2, k=2, seed=12)
        assert any(a.sample(c) != b.sample(c) for c in a.space.enumerate_all())

    def test_exhaustive_tuning_reaches_enumerated_optimum(self):
        oracle = synthetic_landscape(n_options=8, domain_sizes=2, k=3, seed=42)
        optimum = min(oracle.sample(c).f_t for c in oracle.space.enumerate_all())
        run = run_rs(oracle.space, oracle, TunerParams(budget=256), seed=0)
        assert run.best_f_t == pytest.approx(optimum, abs=0)

    def test_values_lie_in_unit_interval(self):
        oracle = synthetic_landscape(n_options=5, domain_sizes=(2, 3, 2, 4, 2), k=2, seed=3)
        for cfg in oracle.space.enumerate_all():
            sample = oracle.sample(cfg)
            assert 0.0 <= sample.f_t <= 1.0
            assert 0.0 <= sample.f_a <= 1.0

    def test_correlation_extremes(self):
        aligned = synthetic_landscape(n_options=5, domain_sizes=2, k=2, seed=4, correlation=1.0)
        opposed = synthetic_landscape(n_options=5, domain_sizes=2, k=2, seed=4, correlation=-1.0)
        for cfg in aligned.space.enumerate_all():
            assert aligned.sample(cfg).f_a == aligned.sample(cfg).f_t
            assert opposed.sample(cfg).f_a == -opposed.sample(cfg).f_t

    def test_perf_sample_requires_finite(self):
        with pytest.raises(ValueError):
            PerfSample(math.nan, 0.0)
