"""Config-domain tests: validation, random draws, enumeration, identity."""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import admmo
from admmo import ConfigSpace, Configuration, OptionSpec, PerfSample, SpaceTooLargeError
from admmo.space import BINARY, INTEGER

from conftest import mixed_spaces


class TestOptionSpec:
    def test_integer_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            OptionSpec.integer("bad", 5, 2)

    def test_categorical_needs_two_levels(self):
        with pytest.raises(ValueError):
            OptionSpec.categorical("bad", ("only",))

    def test_categorical_rejects_duplicate_levels(self):
        with pytest.raises(ValueError):
            OptionSpec.categorical("bad", ("a", "a"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            OptionSpec(name="bad", kind="real")

    def test_domain_sizes(self):
        assert OptionSpec.binary("b").domain_size() == 2
        assert OptionSpec.integer("i", 3, 7).domain_size() == 5
        assert OptionSpec.categorical("c", ("x", "y", "z")).domain_size() == 3


class TestConfigSpace:
    def test_requires_an_option(self):
        with pytest.raises(ValueError):
            ConfigSpace(())

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            ConfigSpace((OptionSpec.binary("a"), OptionSpec.binary("a")))

    def test_size_is_domain_product(self, small_space):
        assert small_space.size() == 2 * 4 * 2


class TestValidate:
    def test_binary_in_domain(self):
        space = ConfigSpace((OptionSpec.binary("b"),))
        assert space.validate(Configuration((1,)))

    def test_integer_out_of_range(self):
        space = ConfigSpace((OptionSpec.integer("i", 0, 5),))
        assert not space.validate(Configuration((7,)))

    def test_length_mismatch(self):
        space = ConfigSpace(
            (OptionSpec.binary("a"), OptionSpec.binary("b"), OptionSpec.binary("c"))
        )
        assert not space.validate(Configuration((0, 1)))

    def test_categorical_identity_not_position(self):
        space = ConfigSpace((OptionSpec.categorical("c", ("fast", "safe")),))
        assert space.validate(Configuration(("safe",)))
        assert not space.validate(Configuration((1,)))

    def test_numeric_types_as_the_option_decides(self):
        space = ConfigSpace((OptionSpec.integer("i", 0, 5), OptionSpec.binary("b")))
        assert space.validate(Configuration((True, 1.0)))
        assert not space.validate(Configuration((1.0, 1)))


def contains_every_value(space: ConfigSpace, values: tuple) -> bool:
    """Reference: ``validate`` as each option's own ``contains`` decides."""
    return len(values) == len(space.options) and all(
        opt.contains(v) for opt, v in zip(space.options, values)
    )


ANY_VALUE = st.one_of(
    st.sampled_from([0, 1, 2, -1, True, False, 0.0, 1.0, 2.5, float("nan"), "fast", "safe", "1", None]),
    st.integers(-4, 6),
    st.floats(-4, 6),
    # the level characters and one non-ASCII one: the default alphabet's
    # first draws, with no .hypothesis/ cache yet, fail the too_slow check
    st.text(alphabet="01 .-afst\u00e9", max_size=2),
)


def near_domain(opt: OptionSpec):
    """Values of the option's domain, as they are or, for an integer-valued
    domain, as floats; or anything."""
    values = tuple(opt.domain)
    in_domain = st.sampled_from(values)
    if not all(isinstance(v, int) for v in values):
        return st.one_of(in_domain, ANY_VALUE)
    return st.one_of(in_domain, in_domain.map(float), ANY_VALUE)


@given(space=mixed_spaces(), data=st.data())
@settings(max_examples=200)
def test_validate_decides_as_every_contains(space, data):
    n = space.n_options
    if data.draw(st.booleans()):
        values = tuple(data.draw(near_domain(opt)) for opt in space.options)
    else:
        size = data.draw(st.sampled_from([n - 1, n + 1]))
        values = tuple(data.draw(st.lists(ANY_VALUE, min_size=size, max_size=size)))
    assert space.validate(Configuration(values)) == contains_every_value(space, values)


class TestRandomConfig:
    def test_deterministic_under_fixed_seed(self, small_space):
        draws_a = [small_space.random_config(random.Random(7)) for _ in range(5)]
        draws_b = [small_space.random_config(random.Random(7)) for _ in range(5)]
        assert draws_a[0] == draws_b[0]

    def test_singleton_integer_domain(self):
        space = ConfigSpace((OptionSpec.integer("i", 3, 3),))
        rng = random.Random(0)
        assert all(space.random_config(rng).values == (3,) for _ in range(20))

    def test_categorical_draws_are_uniform(self):
        space = ConfigSpace((OptionSpec.categorical("c", ("a", "b", "c")),))
        rng = random.Random(123)
        n = 300_000
        counts = {"a": 0, "b": 0, "c": 0}
        for _ in range(n):
            counts[space.random_config(rng).values[0]] += 1
        for level in counts:
            assert abs(counts[level] / n - 1 / 3) < 0.01 / 3

    def test_random_configs_validate(self, small_space):
        rng = random.Random(9)
        assert all(small_space.validate(small_space.random_config(rng)) for _ in range(200))


def drawn_per_option(space: ConfigSpace, rng: random.Random) -> Configuration:
    """Reference: the per-option draws ``random_config`` made before it used
    ``rng.choice``."""
    values = []
    for opt in space.options:
        if opt.kind == BINARY:
            values.append(rng.randrange(2))
        elif opt.kind == INTEGER:
            values.append(rng.randint(opt.lo, opt.hi))
        else:
            values.append(opt.levels[rng.randrange(len(opt.levels))])
    return Configuration(tuple(values))


@given(space=mixed_spaces(), seed=st.integers(0, 2**32), draws=st.integers(1, 8))
@settings(max_examples=200)
def test_random_config_draws_as_the_per_option_loop(space, seed, draws):
    rng, reference = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        assert space.random_config(rng).values == drawn_per_option(space, reference).values
        assert rng.getstate() == reference.getstate()


class TestEnumerate:
    def test_two_binary_options(self):
        space = ConfigSpace((OptionSpec.binary("a"), OptionSpec.binary("b")))
        configs = space.enumerate_all()
        assert len(configs) == 4
        assert configs[0].values == (0, 0)
        assert configs[-1].values == (1, 1)

    def test_mixed_domains_lexicographic(self):
        space = ConfigSpace((OptionSpec.binary("a"), OptionSpec.integer("b", 0, 2)))
        values = [c.values for c in space.enumerate_all()]
        assert values == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_stream_processor_shaped_space(self):
        # six options whose domains multiply to the documented 2,880 rows
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
        assert space.size() == 2880
        configs = space.enumerate_all()
        assert len(configs) == 2880
        assert len(set(configs)) == 2880

    def test_cap_exceeded_raises(self):
        space = ConfigSpace(tuple(OptionSpec.binary(f"b{i}") for i in range(21)))
        with pytest.raises(SpaceTooLargeError):
            space.enumerate_all(cap=1_000_000)

    def test_enumerated_configs_validate(self, small_space):
        assert all(small_space.validate(c) for c in small_space.enumerate_all())


@given(values=st.lists(st.integers(0, 1), min_size=3, max_size=3))
@settings(max_examples=50)
def test_duplicate_relation_is_equality_of_values(values):
    a = Configuration(tuple(values))
    b = Configuration(tuple(values))
    c = Configuration(tuple(reversed(values)))
    assert a == b and hash(a) == hash(b)
    assert (a == c) == (tuple(values) == tuple(reversed(values)))


class TestValueType:
    def test_equal_values_dedupe_in_sets_and_dicts(self):
        a, b = Configuration((1, "fast", 3)), Configuration([1, "fast", 3])
        assert a is not b
        assert len({a, b}) == 1
        assert {a: "first", b: "second"} == {a: "second"}

    def test_hash_is_the_value_tuple_hash(self):
        config = Configuration((0, 2, "safe"))
        assert hash(config) == hash(tuple(config)) == hash(config.values)

    def test_built_from_a_list_is_hashable(self):
        config = Configuration([1, 0, "a"])
        assert {config: 1}[Configuration((1, 0, "a"))] == 1

    def test_equals_its_value_tuple_and_is_ordered(self):
        config = Configuration((1, "fast"))
        assert config == (1, "fast") and config.values == (1, "fast")
        assert type(config.values) is tuple
        assert sorted([Configuration((1, 0)), Configuration((0, 1))]) == [(0, 1), (1, 0)]

    def test_repr_and_len_are_unchanged(self):
        config = Configuration((1, "fast"))
        assert repr(config) == "Configuration(values=(1, 'fast'))"
        assert len(config) == 2

    @pytest.mark.parametrize("protocol", [2, 3, 4, 5])
    def test_pickle_round_trip(self, protocol):
        config = Configuration((1, "fast", -3))
        copy = pickle.loads(pickle.dumps(config, protocol))
        assert type(copy) is Configuration
        assert copy == config and hash(copy) == hash(config)


def test_pickled_configuration_hashes_afresh_in_another_interpreter():
    # string hashes are salted per interpreter: a hash that travelled with
    # the pickled configuration would send this lookup to the wrong slot
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(admmo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import pickle, sys\n"
        "from admmo import Configuration, PerfSample\n"
        "table = pickle.loads(sys.stdin.buffer.read())\n"
        "sample = table.get(Configuration((1, 'fast')))\n"
        "print(hash('fast'), type(sample).__name__, sample == PerfSample(0.5, -2.0))\n"
    )
    table = {Configuration((1, "fast")): PerfSample(0.5, -2.0)}
    done = subprocess.run(
        [sys.executable, "-c", script], input=pickle.dumps(table),
        env=env, capture_output=True, check=True,
    )
    child_hash, found, equal = done.stdout.decode().split()
    assert int(child_hash) != hash("fast")
    assert (found, equal) == ("PerfSample", "True")
