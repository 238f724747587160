"""Shared test helpers: hand-built individuals, plain NSGA-II survival, the
worked survival example and hypothesis strategies for unions and spaces."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from admmo import ConfigSpace, Configuration, Individual, OptionSpec, PerfSample, compute_meta
from admmo.nsga2 import nondominated_sort
from admmo.tuner import fill_by_fronts


def make_individual(
    config_value,
    f_t: float = 0.0,
    f_a: float = 0.0,
    *,
    f_t_norm: float | None = None,
    f_a_norm: float | None = None,
    w: float | None = None,
) -> Individual:
    """An individual with a one-gene config and optional preset fields."""
    ind = Individual(Configuration((config_value,)), PerfSample(f_t, f_a))
    if f_t_norm is not None:
        ind.f_t_norm = f_t_norm
        ind.f_a_norm = f_a_norm
        if w is not None:
            compute_meta(ind, w)
    return ind


def make_meta_individual(config_value, g1: float, g2: float) -> Individual:
    """An individual with meta-objectives set directly (raw values unused)."""
    ind = Individual(Configuration((config_value,)), PerfSample(0.0, 0.0))
    ind.g1 = g1
    ind.g2 = g2
    return ind


def nsga2_survival(union: list[Individual], capacity: int) -> list[Individual]:
    """Plain NSGA-II survival, the reference partial retention is checked
    against: fill by the fronts of the union."""
    return fill_by_fronts(nondominated_sort(union), capacity)


@pytest.fixture
def worked_survival_union() -> list[Individual]:
    """The eight-individual union behind the duplicate-retention example.

    Normalized values at w=1 give fronts F0={x1,x2,x3,x4} (x2=x3=x4
    duplicates), F1={x5,x6,x7} (x6=x7 duplicates), F2={x8}, where x2's
    group dominates x5 and x1 dominates x6's group. Partial retention at
    capacity 4 must keep {x1,x2,x3,x6}, removing all duplicates keeps
    {x1,x2,x5,x6}, ignoring duplicates keeps {x1,x2,x3,x4}.
    """
    coords = {
        "x1": (1, 0.0625, 0.9375),
        "x2": (2, 0.125, 0.5),
        "x3": (2, 0.125, 0.5),
        "x4": (2, 0.125, 0.5),
        "x5": (5, 0.25, 0.625),
        "x6": (6, 0.25, 0.75),
        "x7": (6, 0.25, 0.75),
        "x8": (8, 0.875, 0.625),
    }
    union = []
    for name, (gene, ft, fa) in coords.items():
        ind = make_individual(gene, f_t=ft, f_a=fa, f_t_norm=ft, f_a_norm=fa, w=1.0)
        union.append(ind)
    return union


def names_of(union: list[Individual], survivors: list[Individual]) -> set[str]:
    """Map survivors back to x1..x8 labels by object identity."""
    labels = {}
    for i, ind in enumerate(union):
        labels[id(ind)] = f"x{i + 1}"
    return {labels[id(ind)] for ind in survivors}


@pytest.fixture
def small_space() -> ConfigSpace:
    return ConfigSpace(
        (
            OptionSpec.binary("flag"),
            OptionSpec.integer("level", 0, 3),
            OptionSpec.categorical("mode", ("fast", "safe")),
        )
    )


# Meta-objective values where exact float comparison decides: a 1/8 grid,
# so equal g1 with different g2 is common, both signed zeros, and grid
# values moved by an ulp or so.
META_VALUES = st.sampled_from(
    [k / 8 for k in range(9)] + [-0.0, 5e-17, 1e-16, 0.5 + 1.2e-16, 0.5 - 5.6e-17]
) | st.floats(0, 1)
# normalized objectives that round apart in g1 and g2 at some weights, as
# (0.5, 0.0) and (0.5, 1e-16) do at w = 0.3
NORMALIZED_VALUES = st.sampled_from([k / 8 for k in range(9)] + [5e-17, 1e-16, 2.2e-16])
WEIGHTS = st.sampled_from([k / 10 for k in range(11)]) | st.floats(0, 1000)


@st.composite
def meta_unions(draw, shared: bool | None = None) -> list[Individual]:
    """1 to 20 individuals with meta-objectives set, each a copy of one of
    up to 8 configurations. Points are drawn directly or computed from
    normalized objectives at a weight. Copies of a configuration share its
    point, as measured duplicates do, when ``shared`` is true, do not when
    it is false, and either way when it is None."""
    if draw(st.booleans()):
        points = draw(st.lists(st.tuples(META_VALUES, META_VALUES), min_size=1, max_size=8))
    else:
        w = draw(WEIGHTS)
        normalized = draw(
            st.lists(st.tuples(NORMALIZED_VALUES, NORMALIZED_VALUES), min_size=1, max_size=8)
        )
        points = [
            (ind.g1, ind.g2)
            for ind in (make_individual(0, f_t_norm=t, f_a_norm=a, w=w) for t, a in normalized)
        ]
    picks = draw(st.lists(st.integers(0, 7), min_size=1, max_size=20))
    if shared is None:
        shared = draw(st.booleans())
    return [
        make_meta_individual(pick % len(points), *points[(pick if shared else i) % len(points)])
        for i, pick in enumerate(picks)
    ]


@st.composite
def mixed_spaces(draw) -> ConfigSpace:
    """1 to 4 binary, integer or categorical options."""
    options = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["binary", "integer", "categorical"]))
        if kind == "binary":
            options.append(OptionSpec.binary(f"x{i}"))
        elif kind == "integer":
            lo = draw(st.integers(-2, 2))
            options.append(OptionSpec.integer(f"x{i}", lo, lo + draw(st.integers(0, 3))))
        else:
            options.append(OptionSpec.categorical(f"x{i}", ("fast", "safe", "1")))
    return ConfigSpace(tuple(options))
