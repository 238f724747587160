"""Measurement-oracle tests: budget rule, caching, table loading, landscapes."""

import math
import pickle
import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import mixed_spaces
from hypothesis import given, settings
from hypothesis import strategies as st

from admmo import (
    BudgetExhaustedError,
    BudgetLedger,
    ConfigSpace,
    Configuration,
    Individual,
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
from admmo.oracles import _parse_option_value


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
        with pytest.raises(UnmeasuredConfigurationError) as raised:
            measure(oracle, Configuration((0, 0)), BudgetLedger(budget=5))
        assert str(raised.value) == "configuration (0, 0) has no row in the measurement table"

    def test_invalid_config_rejected(self):
        space = two_bit_space()
        oracle = table_for(space)
        with pytest.raises(ValueError) as raised:
            measure(oracle, Configuration((0, 7)), BudgetLedger(budget=5))
        assert str(raised.value) == "configuration (0, 7) is invalid for the space"

    def test_cache_holds_the_charges_in_order(self):
        space = two_bit_space()
        oracle = table_for(space)
        ledger = BudgetLedger(budget=3)
        rng = random.Random(5)
        requested = [space.random_config(rng) for _ in range(50)]
        for cfg in requested:
            if cfg in ledger.cache or ledger.remaining > 0:
                measure(oracle, cfg, ledger)
        assert list(ledger.cache) == list(dict.fromkeys(requested))[:3]
        assert ledger.consumed == len(ledger.cache)
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

    def test_header_without_rows_rejected(self, tmp_path):
        path = self.write(tmp_path, "# comment line\ncache,mode,t,a\n\n# no rows\n")
        with pytest.raises(TableFormatError) as raised:
            load_table(path, self.SPACE, "t", "a")
        assert str(raised.value) == f"{path}: no data rows after the header"

    def test_empty_delimiter_rejected_before_the_file_is_read(self, tmp_path):
        with pytest.raises(ValueError, match="delimiter"):
            load_table(tmp_path / "absent.csv", self.SPACE, "t", "a", delimiter="")

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

    def test_a_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        text = "cache,mode,t,a\n0,fast,5.0,1.0\n1,safe,6.0,3.0\n"
        expected = load_table(self.write(tmp_path, text), self.SPACE, "t", "a")
        for commented in (text, "# comment line\n" + text):
            (tmp_path / "bom.csv").write_text(commented, encoding="utf-8-sig")
            table = load_table(tmp_path / "bom.csv", self.SPACE, "t", "a")
            assert list(table.rows.items()) == list(expected.rows.items())

    @pytest.mark.parametrize(
        "data, line_no",
        [
            (b"cache,mode,t,a\r\n0,fast,5.0,1.0\r1,caf\xe9,6.0,3.0\n", 3),
            (b"\xef\xbb\xbfcache,mode,t,a\n# caf\xc3\n0,fast,5.0,1.0\n", 2),
            # beyond the first chunk the text layer decodes ahead of the rows
            (b"cache,mode,t,a\n" + b"0,fast,5.0,1.0\n" * 2000 + b"0,fast,\xff5.0,1.0\n", 2002),
        ],
        ids=["cr-and-crlf", "after-a-bom", "past-the-first-chunk"],
    )
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, data, line_no):
        path = tmp_path / "table.csv"
        path.write_bytes(data)
        with pytest.raises(TableFormatError) as raised:
            load_table(path, self.SPACE, "t", "a")
        assert str(raised.value) == f"line {line_no}: not UTF-8 text"

    def test_a_comment_holding_a_unicode_line_separator_is_one_line(self, tmp_path):
        text = "cache,mode,t,a\n# a note\u2028continued\n0,fast,5.0,1.0\n"
        table = load_table(self.write(tmp_path, text), self.SPACE, "t", "a")
        assert table.rows == {Configuration((0, "fast")): PerfSample(5.0, 1.0)}
        with pytest.raises(TableFormatError) as raised:
            load_table(self.write(tmp_path, text + "2,fast,6.0,1.0\n"), self.SPACE, "t", "a")
        assert str(raised.value) == "line 4: value 2 out of range for option 'cache'"

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_a_cell_holding_another_line_separator_names_the_editors_line(self, tmp_path, separator):
        # lines end at \n, \r\n and \r only, as an editor and wc -l count them
        cell = f"fa{separator}st"
        path = self.write(tmp_path, f"cache,mode,t,a\n0,fast,5.0,1.0\n1,{cell},6.0,1.0\n")
        with pytest.raises(TableFormatError) as raised:
            load_table(path, self.SPACE, "t", "a")
        assert str(raised.value) == f"line 3: {cell!r} is not a level of option 'mode'"

    def traced_load(self, tmp_path):
        """A 10,000-row table loaded under tracemalloc: the file, the table,
        and the bytes the load left allocated and allocated at its peak."""
        space = ConfigSpace((OptionSpec.integer("x", 0, 99), OptionSpec.integer("y", 0, 99)))
        lines = ["x,y,t,a"] + [f"{x},{y},{x * 0.25 + y:.4f},{100 - y:.4f}" for x, y in space.enumerate_all()]
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            table = load_table(path, space, "t", "a")
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 10_000
        return path, table, retained, peak

    def test_loading_keeps_no_copy_of_the_text(self, tmp_path):
        # the file is read as a stream: what load_table allocates and frees
        # again stays below the size of the file it reads
        path, _, retained, peak = self.traced_load(tmp_path)
        assert peak - retained < path.stat().st_size

    def test_a_row_keeps_no_object_of_its_own(self, tmp_path):
        # a key, a position and two packed floats: about 108 bytes a row,
        # where a configuration and a sample per row kept about 217
        _, table, retained, _ = self.traced_load(tmp_path)
        assert retained / len(table) < 150


def reference_rows(data_lines, space, t_index, a_index, orientation, delimiter=","):
    """``load_table``'s row loop as it was before each row was hashed once:
    three lookups per row and a ``first_seen`` map for the duplicate check.
    ``data_lines`` holds the (line number, text) of every row after the
    header."""
    n = space.n_options
    t_sign, a_sign = orientation.apply(1.0, 1.0)
    rows, first_seen = {}, {}
    parsed = [{} for _ in range(n)]
    for line_no, line in data_lines:
        cells = line.split(delimiter)
        if len(cells) != n + 2:
            raise TableFormatError(
                f"line {line_no}: expected {n + 2} columns, got {len(cells)}"
            )
        try:
            values = tuple([known[cell] for known, cell in zip(parsed, cells)])
        except KeyError:
            values = tuple(
                _parse_option_value(opt, cell, line_no)
                for opt, cell in zip(space.options, cells[:n])
            )
            for known, cell, value in zip(parsed, cells, values):
                known[cell] = value
        config = Configuration(values)
        try:
            f_t, f_a = float(cells[t_index]), float(cells[a_index])
        except ValueError:
            raise TableFormatError(f"line {line_no}: non-numeric objective value") from None
        if not (math.isfinite(f_t) and math.isfinite(f_a)):
            raise TableFormatError(f"line {line_no}: non-finite objective value")
        sample = PerfSample(t_sign * f_t, a_sign * f_a)
        if config in rows:
            if rows[config] != sample:
                raise TableFormatError(
                    f"line {line_no}: conflicting duplicate of line "
                    f"{first_seen[config]} for configuration {values!r}"
                )
            continue
        rows[config] = sample
        first_seen[config] = line_no
    return rows


DIFFERENTIAL_SPACE = ConfigSpace(
    (
        OptionSpec.binary("cache"),
        OptionSpec.integer("threads", 1, 12),
        OptionSpec.categorical("mode", ("fast", "safe", "lazy")),
        OptionSpec.integer("offset", -2, 3),
    )
)
BAD_CELLS = {
    "cache": ["2", "-1", "yes"],
    "threads": ["0", "13", "four", "1.5"],
    "mode": ["turbo", "Fast", "0"],
    "offset": ["-3", "4", "x"],
}


def padded(text, rng):
    return rng.choice(["", " ", "\t", "  "]) + text + rng.choice(["", " ", "\t"])


def spelled(value, rng):
    """A cell text for an option value: as written, zero-padded if an
    integer, padded with blanks or not."""
    if isinstance(value, int) and rng.random() < 0.2:
        return padded(f"{value:03d}", rng)
    return padded(str(value), rng)


def random_table(rng):
    """A seeded table over ``DIFFERENTIAL_SPACE`` with comments, blank lines,
    padded and zero-padded cells and duplicates that agree: one (text,
    config) entry per line, config None for every line that is not a row.
    The first line after the header is a row."""
    t_first = rng.random() < 0.5
    header = ",".join(padded(name, rng) for name in DIFFERENTIAL_SPACE.option_names)
    header += ",t,a" if t_first else ",a,t"
    lines = [("# a generated table", None), (header, None)]
    objectives = {}
    for i in range(rng.randint(1, 40)):
        if i and rng.random() < 0.15:
            lines.append((rng.choice(["", "   ", "\t", "# note", "  # padded note"]), None))
            continue
        config = DIFFERENTIAL_SPACE.random_config(rng)
        t, a = objectives.setdefault(config, (rng.randint(-40, 40) / 8, rng.randint(0, 80) / 4))
        pair = [t, a] if t_first else [a, t]
        texts = [padded(rng.choice([repr(x), f"{x:.4f}", f"{x:g}"]), rng) for x in pair]
        lines.append((",".join([spelled(v, rng) for v in config] + texts), config))
    return lines, t_first


def corrupt(lines, kind, rng):
    """Insert one row that ``load_table`` must refuse, of the given kind,
    after the first line of the table; returns the line number of the first
    copy a conflicting duplicate clashes with, else None."""
    rows = [i for i, (_, config) in enumerate(lines) if config is not None]
    at = rng.randint(2, len(lines))
    config = DIFFERENTIAL_SPACE.random_config(rng)
    cells = [spelled(v, rng) for v in config] + ["1.5", "2.5"]
    first = None
    if kind == "width":
        cells = cells + ["0"] if rng.random() < 0.5 else cells[:-1]
    elif kind == "option":
        i = rng.randrange(DIFFERENTIAL_SPACE.n_options)
        cells[i] = padded(rng.choice(BAD_CELLS[DIFFERENTIAL_SPACE.option_names[i]]), rng)
    elif kind in ("non-numeric", "non-finite"):
        bad = ["fast", "", "1;5", "0x10"] if kind == "non-numeric" else ["nan", "inf", "-inf", "1e999"]
        cells[-1 - rng.randrange(2)] = padded(rng.choice(bad), rng)
    else:
        config = lines[rng.choice(rows)][1]
        first_at = next(i for i in rows if lines[i][1] == config)
        at = rng.randint(first_at + 1, len(lines))
        first = first_at + 1
        cells = [spelled(v, rng) for v in config] + lines[first_at][0].split(",")[-2:]
        cells[-1] = "99.5"
    lines.insert(at, (",".join(cells), None))
    return first


def table_text(lines, rng):
    return "".join(text + rng.choice(["\n", "\r\n"]) for text, _ in lines)


def data_lines_of(text):
    return [
        (i + 1, line) for i, line in enumerate(text.splitlines())
        if line.strip() and not line.lstrip().startswith("#")
    ][1:]


class TestLoadTableAgainstTheRowLoop:
    """``load_table`` hashes each row once and rescans for a clash's first
    line only when it raises; the old row loop is the reference."""

    def outcomes(self, tmp_path, lines, t_first, orientation, rng):
        """What ``load_table`` and the reference each give for the table:
        its rows as a list of items, or the message it raised."""
        text = table_text(lines, rng)
        path = tmp_path / "table.csv"
        path.write_bytes(text.encode())
        n = DIFFERENTIAL_SPACE.n_options
        t_index, a_index = (n, n + 1) if t_first else (n + 1, n)

        def outcome(load):
            try:
                return list(load().items())
            except TableFormatError as error:
                return str(error)

        return (
            outcome(lambda: load_table(path, DIFFERENTIAL_SPACE, "t", "a", orientation).rows),
            outcome(lambda: reference_rows(
                data_lines_of(text), DIFFERENTIAL_SPACE, t_index, a_index, orientation
            )),
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_same_rows_in_the_same_order(self, tmp_path, seed):
        rng = random.Random(seed)
        lines, t_first = random_table(rng)
        orientation = ObjectiveOrientation(rng.random() < 0.5, rng.random() < 0.5)
        rows, expected = self.outcomes(tmp_path, lines, t_first, orientation, rng)
        assert isinstance(expected, list) and rows == expected
        assert all(type(c) is Configuration and type(s) is PerfSample for c, s in rows)

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("width", "columns, got"),
            ("option", "option '"),
            ("non-numeric", "non-numeric objective value"),
            ("non-finite", "non-finite objective value"),
            ("conflict", "conflicting duplicate of line"),
        ],
    )
    @pytest.mark.parametrize("seed", range(12))
    def test_same_message_for_one_bad_row(self, tmp_path, seed, kind, message):
        rng = random.Random(seed)
        lines, t_first = random_table(rng)
        first = corrupt(lines, kind, rng)
        raised, expected = self.outcomes(tmp_path, lines, t_first, ObjectiveOrientation(), rng)
        assert raised == expected and message in expected
        if first is not None:
            assert f"conflicting duplicate of line {first} for" in raised


class DictTable:
    """The table as it was before it was packed: its rows in a dict."""

    def __init__(self, rows):
        self.rows = rows

    def sample(self, config):
        try:
            return self.rows[config]
        except KeyError:
            raise UnmeasuredConfigurationError(
                f"configuration {config.values!r} has no row in the measurement table"
            ) from None


def lookup(table, config):
    """What ``table.sample`` gives for ``config``: the sample and its type,
    or the type and message of what it raised."""
    try:
        sample = table.sample(config)
    except Exception as error:  # noqa: BLE001 - the outcome is compared
        return type(error), str(error)
    return sample, type(sample)


def off_space(config, space):
    """Inputs that are no configuration of ``space``, made from ``config``:
    each value in turn as 1.0, True, an unhashable list and a value beyond
    its domain, and the configuration one value short and one too long."""
    values = list(config)
    for i, opt in enumerate(space.options):
        beyond = "slow" if opt.kind == "categorical" else opt.domain[-1] + 1
        for value in (1.0, True, [values[i]], beyond):
            yield Configuration(values[:i] + [value] + values[i + 1 :])
    yield Configuration(values[:-1])
    yield Configuration(values + [values[0]])


@st.composite
def tables(draw):
    """A space, the text of a table file over it, and the dict of the rows
    that file holds, in first-occurrence order: some or all of the space's
    configurations, each with a drawn sample, on shuffled lines, some of
    them written twice."""
    space = draw(mixed_spaces())
    configs = draw(st.permutations(space.enumerate_all()))
    if draw(st.booleans()):
        configs = configs[: draw(st.integers(1, len(configs)))]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    lines = [(c, PerfSample(draw(finite), draw(finite))) for c in configs]
    lines = draw(st.permutations(lines + draw(st.lists(st.sampled_from(lines), max_size=5))))
    text = ",".join([*space.option_names, "t", "a"]) + "\n" + "".join(
        ",".join([*map(str, c), repr(s.f_t), repr(s.f_a)]) + "\n" for c, s in lines
    )
    return space, text, dict(lines)


class TestPackedTableAgainstADict:
    """A packed table, built from a mapping or loaded from a file, answers
    as the dict of its rows does, for every configuration and for inputs
    that are none."""

    @settings(max_examples=60, deadline=None)
    @given(tables())
    def test_same_answers_as_the_dict(self, drawn):
        space, text, rows = drawn
        reference = DictTable(rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            path.write_text(text)
            loaded = load_table(path, space, "t", "a")
        built = MeasurementTable(space, rows)
        copies = [pickle.loads(pickle.dumps(t, protocol)) for t in (loaded, built) for protocol in (0, 5)]
        inputs = space.enumerate_all()
        inputs += [bad for config in inputs[:3] for bad in off_space(config, space)]
        missing = next((c for c in space.enumerate_all() if c not in rows), None)
        for table in (loaded, built, *copies):
            assert [lookup(table, c) for c in inputs] == [lookup(reference, c) for c in inputs]
            assert list(table.rows.items()) == list(rows.items())
            assert len(table) == len(table.rows) == len(rows)
            assert table.rows == rows and table == built
            assert table.first_unmeasured() == missing
            assert table.best_f_t() == min(s.f_t for s in rows.values())

    def test_a_row_outside_the_space_is_rejected(self):
        space = two_bit_space()
        rows = {Configuration((0, 0)): PerfSample(1.0, 2.0), Configuration((0, 2)): PerfSample(1.0, 2.0)}
        with pytest.raises(ValueError) as raised:
            MeasurementTable(space, rows)
        assert str(raised.value) == "configuration (0, 2) is invalid for the space"


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
            ([2] * 12, 4, 0.0),  # the benchmark's shape
            ([3, 2], 1, 0.3),  # the smallest wrapping window
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

    def test_landscapes_of_one_shape_share_one_layout(self):
        a = synthetic_landscape(len(MIXED_SIZES), MIXED_SIZES, 3, seed=1)
        b = synthetic_landscape(len(MIXED_SIZES), MIXED_SIZES, 3, seed=2, correlation=0.5)
        assert a._layout is b._layout
        assert synthetic_landscape(len(MIXED_SIZES), MIXED_SIZES, 2, seed=1)._layout is not a._layout


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


class TestPerfSample:
    def test_fields_and_repr(self):
        sample = PerfSample(5.0, -1.5)
        assert (sample.f_t, sample.f_a) == (5.0, -1.5) == sample
        assert repr(sample) == "PerfSample(f_t=5.0, f_a=-1.5)"

    @pytest.mark.parametrize("protocol", [2, 3, 4, 5])
    def test_pickle_round_trip(self, protocol):
        sample = PerfSample(0.25, -3.0)
        copy = pickle.loads(pickle.dumps(sample, protocol))
        assert type(copy) is PerfSample and copy == sample

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_constructor_path_requires_finite(self, bad):
        sample = PerfSample(1.0, 2.0)
        with pytest.raises(ValueError, match="non-finite measurement"):
            PerfSample(bad, 0.0)
        with pytest.raises(ValueError, match="non-finite measurement"):
            PerfSample._make([0.0, bad])
        with pytest.raises(ValueError, match="non-finite measurement"):
            sample._replace(f_a=bad)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_requires_finite(self, protocol):
        # a non-finite pair made behind the constructor's back, as a
        # pickle from elsewhere could hold it
        smuggled = tuple.__new__(PerfSample, (math.nan, 0.0))
        with pytest.raises(ValueError, match="non-finite measurement"):
            pickle.loads(pickle.dumps(smuggled, protocol))

    def test_individual_repr_is_unchanged(self):
        ind = Individual(Configuration((1, "fast")), PerfSample(5.0, 0.125))
        assert repr(ind) == (
            "Individual((1, 'fast'), f_t=5, f_a=0.125, g=(None, None), rank=None)"
        )
