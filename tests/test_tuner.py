"""Tuner tests: trigger, proportion, weight adaptation, survival, main loop."""

import math
import random
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmo import (
    BenchCase,
    BudgetLedger,
    Individual,
    OptimizerSpec,
    PerfSample,
    TunerParams,
    TunerState,
    adapt_weight,
    compute_meta_union,
    dominates,
    nondominated_sort,
    normalize_union,
    run_admmo,
    run_optimizer,
    select_survivors,
    should_trigger,
    synthetic_landscape,
    trigger_probability,
    unique_nondominated_proportion,
    update_stagnation,
)
from admmo import tuner
from admmo.runspec import load_runspec

from conftest import make_individual, make_meta_individual, meta_unions, names_of, nsga2_survival


class TestTriggerProbability:
    def test_zero_within_offset(self):
        for consumed in (1, 57, 400):
            assert trigger_probability(1, consumed, 400) == 0.0
            assert trigger_probability(0, consumed, 400) == 0.0

    def test_reference_points(self):
        assert trigger_probability(5, 50, 400) == pytest.approx(0.042397, abs=1e-4)
        assert trigger_probability(5, 100, 400) == pytest.approx(0.159104, abs=1e-4)

    def test_monotone_in_stagnation_and_consumption(self):
        probs = [trigger_probability(o, 100, 400) for o in range(0, 30)]
        assert probs == sorted(probs)
        probs_b = [trigger_probability(5, b, 400) for b in range(1, 400)]
        assert probs_b == sorted(probs_b)

    def test_requires_consumption_within_budget(self):
        with pytest.raises(ValueError):
            trigger_probability(5, 0, 400)
        with pytest.raises(ValueError):
            trigger_probability(5, 401, 400)

    def test_bounded_by_one(self):
        assert 0.0 <= trigger_probability(100, 200, 400) < 1.0
        # extreme stagnation saturates to 1.0 only through float rounding
        assert trigger_probability(10**6, 400, 400) <= 1.0


class TestShouldTrigger:
    def test_zero_probability_never_fires(self):
        rng = random.Random(0)
        assert not any(should_trigger(1, 50, 400, rng) for _ in range(1000))

    def test_zero_probability_consumes_no_randomness(self):
        rng = random.Random(0)
        before = rng.getstate()
        should_trigger(1, 50, 400, rng)
        assert rng.getstate() == before

    def test_draw_frequency_matches_probability(self):
        prob = trigger_probability(5, 100, 400)
        rng = random.Random(77)
        n = 100_000
        fired = sum(should_trigger(5, 100, 400, rng) for _ in range(n))
        assert abs(fired / n - prob) < 0.01


class TestProportion:
    def test_worked_example_counts(self, worked_survival_union):
        prop = unique_nondominated_proportion(worked_survival_union, 1.0)
        assert (prop.nondominated, prop.unique) == (2, 5)
        assert prop.value == pytest.approx(0.4)

    def test_all_copies_of_one_config(self):
        union = [make_individual(0, f_t_norm=0.3, f_a_norm=0.7) for _ in range(6)]
        prop = unique_nondominated_proportion(union, 1.0)
        assert (prop.nondominated, prop.unique) == (1, 1)
        assert prop.value == 1.0

    def test_strict_dominance_chain(self):
        union = [
            make_individual(i, f_t_norm=0.1 * (i + 1), f_a_norm=0.0) for i in range(5)
        ]
        prop = unique_nondominated_proportion(union, 1.0)
        assert prop.value == pytest.approx(1 / 5)

    @given(
        points=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=8),
        picks=st.lists(st.integers(0, 7), min_size=1, max_size=20),
        w=st.floats(min_value=0, allow_infinity=False),
    )
    def test_count_is_front_zero_of_the_unique_configurations(self, points, picks, w):
        # duplicates share one sample, so copies of a point carry equal objectives
        union = []
        for pick in picks:
            gene = pick % len(points)
            f_t, f_a = points[gene]
            union.append(make_individual(gene, f_t_norm=f_t, f_a_norm=f_a, w=w))
        for i, ind in enumerate(union):
            ind.rank = -i
        prop = unique_nondominated_proportion(union, w)
        assert [ind.rank for ind in union] == [-i for i in range(len(union))]
        unique, _ = tuner.split_duplicates(union)
        assert prop.unique == len(unique)
        assert prop.nondominated == len(nondominated_sort(unique)[0])


def reference_proportion(union):
    """p' by pairs, the reference for the sweep and for survival's count:
    split off the duplicates, then ask ``dominates`` of every ordered pair
    of the unique ones."""
    unique, _ = tuner.split_duplicates(union)
    nondominated = sum(
        1 for ind in unique if not any(dominates(other, ind) for other in unique)
    )
    return tuner.Proportion(nondominated=nondominated, unique=len(unique))


class TestProportionSweep:
    @pytest.mark.parametrize("w", [k / 10 for k in range(11)])
    def test_near_tie_pair_counts_as_every_pair(self, w):
        union = [
            make_individual(0, f_t_norm=0.5, f_a_norm=0.0, w=w),
            make_individual(1, f_t_norm=0.5, f_a_norm=1e-16, w=w),
        ]
        assert unique_nondominated_proportion(union, w) == reference_proportion(union)
        reverse = union[::-1]
        assert unique_nondominated_proportion(reverse, w) == reference_proportion(reverse)

    def test_copies_count_at_their_first_point(self):
        # a later copy of a configuration is not a point of its own
        union = [
            make_individual(0, f_t_norm=0.5, f_a_norm=0.5, w=1.0),
            make_individual(1, f_t_norm=0.25, f_a_norm=0.5, w=1.0),
            make_individual(0, f_t_norm=0.0, f_a_norm=0.0, w=1.0),
        ]
        prop = unique_nondominated_proportion(union, 1.0)
        assert prop == tuner.Proportion(nondominated=1, unique=2)


def two_point_union():
    return [
        make_individual(0, f_t_norm=0.2, f_a_norm=0.8),
        make_individual(1, f_t_norm=0.4, f_a_norm=0.1),
    ]


def threshold_proportion(unique):
    """p' at any weight, counted off the thresholds of ``unique``."""
    thresholds = tuner.weight_thresholds(unique)
    return lambda w: bisect_left(thresholds, w) / len(unique)


def sweep_proportion(unique):
    """p' at any weight, as the sweep over the meta-objectives counts it."""
    return lambda w: tuner.unique_nondominated_proportion(unique, w).value


def linear_adapt_weight(union, w, target, proportion=threshold_proportion):
    """The reference walk: measures p' at every point until it stops.

    ``tuner.adapt_weight`` must return the same weight and leave the same
    meta-objectives. ``proportion`` makes the p' of the unique
    configurations at any weight.
    """
    unique, _ = tuner.split_duplicates(union)
    p_at = proportion(unique)
    prev_sign = 0
    prev_w = w
    prev_gap = math.inf
    for _ in range(tuner.ADAPT_ITERATION_CAP):
        p_now = p_at(w)
        if p_now == target:
            break
        sign = 1 if p_now < target else -1
        gap = abs(p_now - target)
        if prev_sign != 0 and sign != prev_sign:
            # Oscillation: the target sits between two lattice values of p'.
            if gap < prev_gap:
                pass
            elif prev_gap < gap:
                w = prev_w
            else:
                w = min(w, prev_w)
            break
        if (sign > 0 and w >= tuner.WEIGHT_MAX) or (sign < 0 and w <= tuner.WEIGHT_MIN):
            break
        prev_sign, prev_w, prev_gap = sign, w, gap
        if sign > 0:
            w = min(w + tuner.COARSE_STEP, tuner.WEIGHT_MAX)
        elif w - tuner.COARSE_STEP >= 0.1:
            w = w - tuner.COARSE_STEP
        else:
            w = max(w - tuner.FINE_STEP, tuner.WEIGHT_MIN)
    compute_meta_union(union, w)
    return w


def linear_walk_points(start, up, length):
    """The reference lattice: the walk's first ``length`` points from
    ``start``, one step at a time."""
    points = [start]
    while len(points) < length:
        x = points[-1]
        if up:
            x = min(x + tuner.COARSE_STEP, tuner.WEIGHT_MAX)
        elif x - tuner.COARSE_STEP >= 0.1:
            x = x - tuner.COARSE_STEP
        else:
            x = max(x - tuner.FINE_STEP, tuner.WEIGHT_MIN)
        points.append(x)
    return points


def walk_union(points, picks):
    """Individuals at ``points``, one per pick; equal picks are duplicates
    and share one sample, as measured duplicates do."""
    union = []
    for pick in picks:
        gene = pick % len(points)
        f_t, f_a = points[gene]
        union.append(make_individual(gene, f_t_norm=f_t, f_a_norm=f_a))
    return union


def counting_evaluations(monkeypatch):
    """Count p' evaluations made through the module-level function."""
    calls = []
    original = tuner.unique_nondominated_proportion

    def counted(union, w):
        calls.append(w)
        return original(union, w)

    monkeypatch.setattr(tuner, "unique_nondominated_proportion", counted)
    return calls


GRID = st.integers(0, 8).map(lambda k: k / 8)
UNIT_FLOATS = st.floats(0, 1)
# near ties: grid values moved by a few ulps, where g1 and g2 round apart
NEAR_TIES = st.tuples(GRID, st.sampled_from([0.0, 5e-17, 1e-16, 2.2e-16, 4e-16])).map(
    lambda pair: min(1.0, pair[0] + pair[1])
)
START_WEIGHTS = st.sampled_from([0.0, 1000.0, 999.95, 0.05]) | st.floats(0, 1000)
TARGETS = st.sampled_from([0.05, 0.25, 0.5, 2 / 3, 0.75, 1.0]) | st.floats(0.05, 1.0)


def walk_inputs(values):
    return st.tuples(
        st.lists(st.tuples(values, values), min_size=1, max_size=20),
        st.lists(st.integers(0, 19), min_size=1, max_size=20),
        START_WEIGHTS,
        TARGETS,
    )


LATTICE_STARTS = [
    0.0,
    0.05,
    0.1,
    math.nextafter(0.1, math.inf),
    math.nextafter(0.1, -math.inf),
    0.15,
    0.2,  # its first coarse step lands exactly on 0.1, which is still coarse
    1e-4,  # its first fine step lands exactly on the bound
    1.0,
    999.95,
    1000.0,
    *(random.Random(seed).uniform(0, 1000) for seed in range(6)),
]
LATTICE_LENGTH = tuner.ADAPT_ITERATION_CAP + 1  # the cap's point is the last a walk reaches
# the lengths adapt_weight asks for, in order: it doubles up to the cap's point
WALK_LENGTHS = [2**k for k in range(1, 14)] + [LATTICE_LENGTH]


def bits(points):
    """Exact float identity, telling 0.0 from -0.0."""
    return [x.hex() for x in points]


@pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
@pytest.mark.parametrize("start", LATTICE_STARTS)
class TestExtendWalk:
    def test_one_call_matches_the_loop(self, start, up):
        points = [start]
        tuner.extend_walk(points, up, LATTICE_LENGTH)
        assert bits(points) == bits(linear_walk_points(start, up, LATTICE_LENGTH))

    def test_gallop_requests_match_the_loop(self, start, up):
        reference = linear_walk_points(start, up, LATTICE_LENGTH)
        points = [start]
        for length in WALK_LENGTHS:
            tuner.extend_walk(points, up, length)
            assert bits(points) == bits(reference[:length])

    def test_every_length_one_point_at_a_time(self, start, up):
        points = [start]
        for length in range(1, LATTICE_LENGTH + 1):
            tuner.extend_walk(points, up, length)
            assert len(points) == length
        assert bits(points) == bits(linear_walk_points(start, up, LATTICE_LENGTH))


class TestExtendWalkResumes:
    @settings(max_examples=100, deadline=None)
    @given(
        start=st.sampled_from(LATTICE_STARTS) | st.floats(0, 1000),
        up=st.booleans(),
        lengths=st.tuples(st.integers(1, LATTICE_LENGTH), st.integers(1, LATTICE_LENGTH)),
    )
    def test_any_prefix_extends_to_any_length(self, start, up, lengths):
        # a walk resumes from its last point, wherever the last request ended
        prefix, length = sorted(lengths)
        reference = linear_walk_points(start, up, length)
        points = reference[:prefix]
        tuner.extend_walk(points, up, length)
        assert bits(points) == bits(reference)

    def test_up_walk_from_zero_reaches_the_bound_at_the_cap_point(self):
        # 10,000 coarse steps from 0 add up to 1000.0000000001588, so the
        # cap's point is the walk's first on the bound, as in the loop
        reference = linear_walk_points(0.0, True, LATTICE_LENGTH)
        points = [0.0]
        tuner.extend_walk(points, True, LATTICE_LENGTH)
        assert points.index(tuner.WEIGHT_MAX) == reference.index(tuner.WEIGHT_MAX)
        assert points.index(tuner.WEIGHT_MAX) == tuner.ADAPT_ITERATION_CAP
        assert bits(points) == bits(reference)


def exact_nondominated(unique, w):
    """How many of ``unique`` no other one dominates at ``w``, comparing
    every pair's meta-objectives in exact rational arithmetic."""
    w = Fraction(w)
    meta = [
        (t + w * a, t - w * a)
        for t, a in ((Fraction(ind.f_t_norm), Fraction(ind.f_a_norm)) for ind in unique)
    ]
    return sum(
        not any(g1 <= h1 and g2 <= h2 and (g1 < h1 or g2 < h2) for g1, g2 in meta)
        for h1, h2 in meta
    )


# weights of the walk's lattice: coarse steps up from 0, fine steps down from 0.1, the bound
LATTICE_WEIGHTS = (
    linear_walk_points(0.0, True, 101) + linear_walk_points(0.1, False, 101) + [tuner.WEIGHT_MAX]
)


class TestWeightThresholds:
    def test_worked_pair(self):
        # the pair becomes incomparable just above w = 0.2 / 0.7
        expected = [-math.inf, (0.4 - 0.2) / (0.8 - 0.1)]
        assert tuner.weight_thresholds(two_point_union()) == expected

    def test_same_auxiliary_value_is_dominated_at_every_weight(self):
        union = [make_individual(i, f_t_norm=0.2 * i, f_a_norm=0.5) for i in range(3)]
        assert tuner.weight_thresholds(union) == [-math.inf, math.inf, math.inf]

    def test_equal_target_values_never_dominate(self):
        union = [make_individual(i, f_t_norm=0.5, f_a_norm=i / 4) for i in range(5)]
        assert tuner.weight_thresholds(union) == [-math.inf] * 5

    @settings(max_examples=100, deadline=None)
    @given(
        points=st.lists(st.tuples(UNIT_FLOATS, UNIT_FLOATS), min_size=1, max_size=12),
        weights=st.lists(st.sampled_from(LATTICE_WEIGHTS), min_size=1, max_size=8),
    )
    def test_count_below_a_lattice_weight_is_the_exact_count(self, points, weights):
        unique = walk_union(points, range(len(points)))
        thresholds = tuner.weight_thresholds(unique)
        assert thresholds == sorted(thresholds)
        for w in weights:
            assert bisect_left(thresholds, w) == exact_nondominated(unique, w)


class CountingOracle:
    """An oracle that counts its samples: each one is a charge."""

    def __init__(self, oracle):
        self.space, self.oracle, self.calls = oracle.space, oracle, 0

    def sample(self, config):
        self.calls += 1
        return self.oracle.sample(config)


def observed_run(space, oracle, params, seed, spec):
    """A seeded ``evolve`` run, with the union ``union_observer`` saw at each
    iteration and the oracle's sample count at that moment."""
    counting = CountingOracle(oracle)
    unions, calls = {}, {}

    def observe(iteration, union):
        unions[iteration] = [(i.config, i.raw, i.f_t_norm, i.f_a_norm) for i in union]
        calls[iteration] = counting.calls

    run = tuner.evolve(space, counting, params, seed, spec, union_observer=observe)
    return run, unions, calls


def recorded_walks(case, params, specs, seeds):
    """(union, start weight) of every iteration of seeded ``evolve`` runs:
    the union as ``union_observer`` sees it and the weight the iteration
    started from."""
    walks = []
    for spec in specs:
        for seed in seeds:
            run, unions, _ = observed_run(case.space, case.oracle, params, seed, spec)
            walks += [(unions[i], run.trajectory[i - 1].w) for i in range(1, len(run.trajectory))]
    return walks


def rebuilt(snapshot):
    union = []
    for config, raw, f_t_norm, f_a_norm in snapshot:
        ind = Individual(config, raw)
        ind.f_t_norm, ind.f_a_norm = f_t_norm, f_a_norm
        union.append(ind)
    return union


DEMO_SPEC = Path(__file__).resolve().parents[1] / "demos" / "data" / "demo-spec.yaml"
ADMMO_SPECS = (OptimizerSpec("admmo"), OptimizerSpec("admmo", duplicates_mode="remove_all"))


def nk_walks():
    oracle = synthetic_landscape(12, 2, 4, seed=101)
    case = BenchCase("nk", oracle.space, oracle)
    params = TunerParams(budget=200, target_proportion=0.3)
    return recorded_walks(case, params, ADMMO_SPECS, range(1, 6))


def table_walks():
    spec = load_runspec(DEMO_SPEC)
    params = TunerParams(min(spec.budgets), spec.population_size, spec.p)
    return recorded_walks(spec.cases[0], params, ADMMO_SPECS, (1, 2))


@pytest.mark.parametrize("walks", [nk_walks, table_walks], ids=["nk", "demo-table"])
def test_walk_on_recorded_unions_matches_the_sweep_walk(walks):
    # Real unions have no near ties, so the sweep's p' is the thresholds'
    # at every point of every walk, and the weights are the float sweep's.
    walks = walks()
    assert len(walks) > 100
    for snapshot, w0 in walks:
        union, reference = rebuilt(snapshot), rebuilt(snapshot)
        expected = linear_adapt_weight(reference, w0, 0.3, sweep_proportion)
        assert adapt_weight(union, w0, 0.3) == expected
        assert [(ind.g1, ind.g2) for ind in union] == [(ind.g1, ind.g2) for ind in reference]


class TestAdaptWeight:
    def test_entry_proportion_already_on_target(self):
        union = two_point_union()
        assert adapt_weight(union, 0.1, 0.5) == 0.1

    def test_walks_up_to_the_threshold(self):
        # the pair becomes incomparable just above w = 2/7
        union = two_point_union()
        w = adapt_weight(union, 0.1, 1.0)
        assert w == pytest.approx(0.3)
        assert unique_nondominated_proportion(union, w).value == 1.0

    def test_oscillation_keeps_nearest_proportion(self):
        # reachable proportions are only {0.5, 1.0}
        union = two_point_union()
        assert adapt_weight(union, 0.1, 0.8) == pytest.approx(0.3)
        union = two_point_union()
        assert adapt_weight(union, 0.1, 0.6) == pytest.approx(0.2)

    def test_oscillation_tie_prefers_smaller_weight(self):
        union = two_point_union()
        assert adapt_weight(union, 0.1, 0.75) == pytest.approx(0.2)
        # walking down, the smaller weight is the later point
        union = two_point_union()
        assert adapt_weight(union, 0.5, 0.75) == pytest.approx(0.2)

    def test_a_point_on_its_threshold_is_still_dominated(self):
        # (0, 0) dominates (0.5, 1) up to w = 0.5 inclusive, a point of the walk
        union = [
            make_individual(0, f_t_norm=0.0, f_a_norm=0.0),
            make_individual(1, f_t_norm=0.5, f_a_norm=1.0),
        ]
        points = linear_walk_points(0.1, True, 6)
        assert points[4] == 0.5
        assert tuner.weight_thresholds(union) == [-math.inf, 0.5]
        assert adapt_weight(union, 0.1, 1.0) == points[5]

    def test_sticks_at_upper_bound(self):
        # equal auxiliary values make p' weight-independent at 1/3 < target
        union = [
            make_individual(i, f_t_norm=0.2 * (i + 1), f_a_norm=0.5) for i in range(3)
        ]
        w = adapt_weight(union, tuner.WEIGHT_MAX, 0.5)
        assert w == tuner.WEIGHT_MAX

    def test_descends_to_lower_bound_on_all_duplicates(self):
        union = [make_individual(0, f_t_norm=0.1, f_a_norm=0.1) for _ in range(3)]
        w = adapt_weight(union, 2.0, 0.5)
        assert w == tuner.WEIGHT_MIN

    def test_meta_left_at_returned_weight(self):
        union = two_point_union()
        w = adapt_weight(union, 0.1, 1.0)
        for ind in union:
            assert ind.g1 == pytest.approx(ind.f_t_norm + w * ind.f_a_norm)

    def test_never_moves_against_the_gap(self):
        rng = random.Random(1234)
        for _ in range(200):
            size = rng.randint(2, 12)
            union = [
                make_individual(i, f_t_norm=rng.random(), f_a_norm=rng.random())
                for i in range(size)
            ]
            w0 = rng.random() * 2
            target = rng.choice([0.1, 0.3, 0.5, 0.9, 1.0])
            before = unique_nondominated_proportion(union, w0).value
            w1 = adapt_weight(union, w0, target)
            if before < target:
                assert w1 >= w0
            elif before > target:
                assert w1 <= w0
            else:
                assert w1 == w0

    @settings(max_examples=60, deadline=None)
    @given(walk=st.one_of(walk_inputs(GRID), walk_inputs(UNIT_FLOATS), walk_inputs(NEAR_TIES)))
    def test_matches_the_linear_walk(self, walk):
        points, picks, w0, target = walk
        union = walk_union(points, picks)
        reference = walk_union(points, picks)
        assert adapt_weight(union, w0, target) == linear_adapt_weight(reference, w0, target)
        assert [(ind.g1, ind.g2) for ind in union] == [(ind.g1, ind.g2) for ind in reference]

    @pytest.mark.parametrize(
        "w0, expected", [(1000.0, 0.1997999998411287), (999.95, 0.14979999984117415)]
    )
    def test_down_walk_into_the_cap(self, monkeypatch, w0, expected):
        # p' stays above the target all the way down, so the cap ends the walk
        points = [(0.5, c / 4) for c in range(5)]
        calls = counting_evaluations(monkeypatch)
        reference = walk_union(points, range(5))
        assert linear_adapt_weight(reference, w0, 0.5, sweep_proportion) == expected
        assert len(calls) == tuner.ADAPT_ITERATION_CAP
        calls.clear()
        union = walk_union(points, range(5))
        assert adapt_weight(union, w0, 0.5) == expected
        assert calls == [expected]  # the one count that leaves the meta-objectives there
        assert [(ind.g1, ind.g2) for ind in union] == [(ind.g1, ind.g2) for ind in reference]


class TestNearTies:
    @pytest.mark.xfail(
        strict=True,
        reason="FOUND in CHANGES.md: at w=0.3 g1 rounds equal while g2 rounds apart, "
        "so one point spuriously dominates the other",
    )
    def test_proportion_monotone_in_weight(self):
        union = [
            make_individual(0, f_t_norm=0.5, f_a_norm=0.0),
            make_individual(1, f_t_norm=0.5, f_a_norm=1e-16),
        ]
        values = [unique_nondominated_proportion(union, k / 10).value for k in range(1, 11)]
        assert values == sorted(values)


class TestPartialDuplicateSurvival:
    def test_worked_example(self, worked_survival_union):
        union = worked_survival_union
        survivors = select_survivors(list(union), 4, "partial")[0]
        assert names_of(union, survivors) == {"x1", "x2", "x3", "x6"}

    def test_variant_modes_on_worked_example(self, worked_survival_union):
        union = worked_survival_union
        compute_meta_union(union, 1.0)
        removed, _ = select_survivors(list(union), 4, "remove_all")
        assert names_of(union, removed) == {"x1", "x2", "x5", "x6"}
        compute_meta_union(union, 1.0)
        indistinct, _ = select_survivors(list(union), 4, "indistinct")
        assert names_of(union, indistinct) == {"x1", "x2", "x3", "x4"}

    def test_no_duplicates_equals_plain_survival(self):
        rng = random.Random(6)
        union = [
            make_individual(i, f_t_norm=rng.random(), f_a_norm=rng.random(), w=1.0)
            for i in range(20)
        ]
        partial = set(map(id, select_survivors(list(union), 8, "partial")[0]))
        compute_meta_union(union, 1.0)
        plain = set(map(id, nsga2_survival(list(union), 8)))
        assert partial == plain

    def test_single_front_of_duplicates_has_no_successor_to_demote_into(self):
        union = [make_individual(0, f_t_norm=0.5, f_a_norm=0.5, w=1.0) for _ in range(6)]
        survivors = select_survivors(list(union), 3, "partial")[0]
        assert len(survivors) == 3

    def test_front_zero_matches_unique_nondominated_count(self):
        rng = random.Random(8)
        for _ in range(100):
            union = []
            for i in range(rng.randint(4, 10)):
                ind = make_individual(
                    i, f_t_norm=rng.random(), f_a_norm=rng.random(), w=1.0
                )
                union.append(ind)
                for _ in range(rng.randint(0, 2)):
                    twin = make_individual(
                        i, f_t_norm=ind.f_t_norm, f_a_norm=ind.f_a_norm, w=1.0
                    )
                    union.append(twin)
            capacity = max(2, len(union) // 3)
            expected = unique_nondominated_proportion(union, 1.0).nondominated
            compute_meta_union(union, 1.0)
            survivors = select_survivors(list(union), capacity, "partial")[0]
            implied = [ind for ind in survivors if ind.rank == 0]
            # front 0 after demotion holds exactly the unique nondominated
            # configurations, capped by what survived
            assert len(implied) == min(expected, capacity)
            assert len({ind.config for ind in implied}) == len(implied)

    def test_extremes_always_survive(self):
        rng = random.Random(9)
        for _ in range(100):
            union = [
                make_individual(i, f_t_norm=rng.random(), f_a_norm=rng.random(), w=1.0)
                for i in range(15)
            ]
            survivors = select_survivors(list(union), rng.randint(2, 10), "partial")[0]
            min_g1 = min(ind.g1 for ind in union)
            min_g2 = min(ind.g2 for ind in union)
            assert any(ind.g1 == min_g1 for ind in survivors)
            assert any(ind.g2 == min_g2 for ind in survivors)

    def test_undersized_union_rejected(self):
        union = [make_individual(0, f_t_norm=0.1, f_a_norm=0.1, w=1.0)]
        for mode in ("partial", "indistinct"):
            with pytest.raises(ValueError, match="cannot fill"):
                select_survivors(union, 2, mode)
        assert len(select_survivors(union, 2, "remove_all")[0]) == 1


class TestSurvivalProperties:
    @pytest.mark.parametrize("mode", tuner.DUPLICATES_MODES)
    @settings(max_examples=200)
    @given(union=meta_unions(shared=True), data=st.data())
    def test_on_copies_that_share_their_point(self, mode, union, data):
        # copies share one sample in a run, so they share their point here
        capacity = data.draw(st.integers(1, len(union)))
        survivors, proportion = select_survivors(list(union), capacity, mode)
        assert proportion == reference_proportion(union)
        unique = len({ind.config for ind in union})
        if mode == tuner.DUPLICATES_REMOVE_ALL:
            assert len(survivors) == min(capacity, unique)
            assert len({ind.config for ind in survivors}) == len(survivors)
        else:
            assert len(survivors) == capacity
        if mode != tuner.DUPLICATES_PARTIAL:
            return
        front_zero = [ind for ind in survivors if ind.rank == 0]
        assert not any(dominates(other, ind) for ind in front_zero for other in union)
        # every copy of the union is in a front; only the last has no successor to demote into
        last = max(ind.rank for ind in union)
        for rank in range(last):
            configs = [ind.config for ind in union if ind.rank == rank]
            assert len(set(configs)) == len(configs)
        if last > 0:
            assert len(front_zero) == min(proportion.nondominated, capacity)


class TestUpdateStagnation:
    def make_state(self, best_f_t=0.5):
        return TunerState(BudgetLedger(budget=10), [], best_f_t)

    def test_new_best_resets(self):
        state = self.make_state()
        state.stagnation = 4
        update_stagnation(state, [make_individual(1, f_t=0.4)])
        assert state.stagnation == 0
        assert state.best_f_t == 0.4

    def test_exact_tie_counts_as_stagnant(self):
        state = self.make_state()
        update_stagnation(state, [make_individual(1, f_t=0.5)])
        assert state.stagnation == 1
        assert state.best_f_t == 0.5

    def test_three_stagnant_iterations(self):
        state = self.make_state()
        for _ in range(3):
            update_stagnation(state, [make_individual(1, f_t=0.9)])
        assert state.stagnation == 3

    def test_no_offspring_counts_as_stagnant(self):
        state = self.make_state()
        update_stagnation(state, [])
        assert (state.stagnation, state.best_f_t) == (1, 0.5)

    def test_picks_best_offspring_of_the_batch(self):
        state = self.make_state()
        update_stagnation(
            state,
            [make_individual(1, f_t=0.4), make_individual(2, f_t=0.3)],
        )
        assert state.best_f_t == 0.3


class TestRunAdmmo:
    def test_budget_equal_to_population_means_no_iterations(self):
        oracle = synthetic_landscape(n_options=20, domain_sizes=2, k=3, seed=5)
        params = TunerParams(budget=10, population_size=10)
        run = run_admmo(oracle.space, oracle, params, seed=3)
        assert run.measurements_used == 10  # seed 3 gives 10 distinct configs
        assert len(run.trajectory) == 1
        assert run.best_f_t == min(run.best_by_measurement)

    def test_budget_below_population_rejected(self):
        oracle = synthetic_landscape(n_options=6, domain_sizes=2, k=2, seed=5)
        with pytest.raises(ValueError):
            run_admmo(oracle.space, oracle, TunerParams(budget=5, population_size=10), seed=0)

    def test_bitwise_deterministic(self):
        oracle = synthetic_landscape(n_options=10, domain_sizes=2, k=3, seed=8)
        params = TunerParams(budget=80)
        a = run_admmo(oracle.space, oracle, params, seed=4)
        b = run_admmo(oracle.space, oracle, params, seed=4)
        assert a.trajectory == b.trajectory
        assert a.best_config == b.best_config
        assert a.best_by_measurement == b.best_by_measurement

    def test_bounded_by_enumerated_optimum(self):
        oracle = synthetic_landscape(n_options=6, domain_sizes=2, k=2, seed=12)
        optimum = min(oracle.sample(c).f_t for c in oracle.space.enumerate_all())
        run = run_admmo(oracle.space, oracle, TunerParams(budget=64), seed=1)
        assert run.best_f_t >= optimum
        assert run.measurements_used <= 64

    def test_budget_never_exceeded(self):
        oracle = synthetic_landscape(n_options=12, domain_sizes=2, k=4, seed=2)
        for seed in range(5):
            run = run_admmo(oracle.space, oracle, TunerParams(budget=60), seed=seed)
            assert run.measurements_used <= 60
            assert len(run.best_by_measurement) == run.measurements_used
            assert run.trajectory[-1].b <= 60

    def test_small_space_terminates_when_exhausted(self):
        oracle = synthetic_landscape(n_options=3, domain_sizes=2, k=1, seed=6)
        run = run_admmo(oracle.space, oracle, TunerParams(budget=50, population_size=4), seed=0)
        assert run.measurements_used == 8
        assert run.best_f_t == min(oracle.sample(c).f_t for c in oracle.space.enumerate_all())

    def test_trigger_disabled_keeps_weight_fixed(self, monkeypatch):
        monkeypatch.setattr(tuner, "TRIGGER_OFFSET", 10**9)
        oracle = synthetic_landscape(n_options=10, domain_sizes=2, k=3, seed=8)
        params = TunerParams(budget=60)
        run = run_admmo(oracle.space, oracle, params, seed=4)
        assert all(rec.w == 1.0 for rec in run.trajectory)

    def test_trajectory_is_well_formed(self):
        oracle = synthetic_landscape(n_options=10, domain_sizes=2, k=3, seed=8)
        run = run_admmo(oracle.space, oracle, TunerParams(budget=80), seed=4)
        bs = [rec.b for rec in run.trajectory]
        assert bs == sorted(bs)
        bests = [rec.best_f_t_raw for rec in run.trajectory]
        assert all(x >= y for x, y in zip(bests, bests[1:]))
        assert all(0 < rec.p_prime <= 1 for rec in run.trajectory)
        assert all(rec.o >= 0 for rec in run.trajectory)


EVOLVE_SPECS = (
    OptimizerSpec("admmo"),
    OptimizerSpec("admmo", duplicates_mode="indistinct"),
    OptimizerSpec("admmo", duplicates_mode="remove_all"),
    OptimizerSpec("admmo", trigger_mode="constant"),
    OptimizerSpec("mmo_fixed"),
    OptimizerSpec("pmo"),
)


def nk_case(budget=60):
    oracle = synthetic_landscape(12, 2, 4, seed=101)
    return oracle.space, oracle, TunerParams(budget=budget, target_proportion=0.3)


def demo_table_case():
    spec = load_runspec(DEMO_SPEC)
    case = spec.cases[0]
    return case.space, case.oracle, TunerParams(min(spec.budgets), spec.population_size, spec.p)


def meta_snapshot(union):
    return [(ind.config, ind.g1, ind.g2) for ind in union]


def snapshot_union(snapshot):
    union = []
    for config, g1, g2 in snapshot:
        ind = Individual(config, PerfSample(0.0, 0.0))
        ind.g1, ind.g2 = g1, g2
        union.append(ind)
    return union


@pytest.mark.parametrize("case", [nk_case, demo_table_case], ids=["nk", "demo-table"])
@pytest.mark.parametrize("spec", EVOLVE_SPECS, ids=lambda spec: spec.label)
def test_trajectory_p_prime_is_the_pairwise_reference_of_each_union(case, spec):
    # row 0 counts the initial population, every later row the union survival sorts
    space, oracle, params = case()
    for seed in (1, 2, 3):
        unions = {}

        def observe(iteration, union):
            unions[iteration] = meta_snapshot(union)

        run = tuner.evolve(space, oracle, params, seed, spec, union_observer=observe)
        state = tuner.seed_population(space, oracle, params, random.Random(seed))
        normalize_union(state.population)
        w = run.trajectory[0].w
        if w is None:
            for ind in state.population:
                ind.g1, ind.g2 = ind.f_t_norm, ind.f_a_norm
        else:
            compute_meta_union(state.population, w)
        unions[0] = meta_snapshot(state.population)
        assert sorted(unions) == [row.iteration for row in run.trajectory]
        for row in run.trajectory:
            expected = reference_proportion(snapshot_union(unions[row.iteration]))
            assert row.p_prime == expected.value, row


def reference_demote_duplicates(fronts):
    """Partial retention built on ``split_duplicates``: each front keeps the
    first copy of each configuration and hands the rest to the next."""
    for i in range(len(fronts) - 1):
        fronts[i], demoted = tuner.split_duplicates(fronts[i])
        for ind in demoted:
            ind.rank = i + 1
        fronts[i + 1] += demoted


def reference_crowding_distance(front):
    """Crowding with a key function per read, as NSGA-II states it."""
    for ind in front:
        ind.crowding = 0.0 if len(front) > 2 else math.inf
    if len(front) <= 2:
        return
    for key in (lambda ind: ind.g1, lambda ind: ind.g2):
        ordered = sorted(front, key=key)
        ordered[0].crowding = ordered[-1].crowding = math.inf
        span = key(ordered[-1]) - key(ordered[0])
        if span > 0:
            for left, mid, right in zip(ordered, ordered[1:], ordered[2:]):
                mid.crowding += (key(right) - key(left)) / span


def reference_survival(union, capacity, mode):
    """(fronts, survivors, p') of survival with p' counted on sets of
    configurations over the union and the sort's front 0 before demotion."""
    if mode == tuner.DUPLICATES_REMOVE_ALL:
        union, _ = tuner.split_duplicates(union)
        capacity = min(capacity, len(union))
    fronts = nondominated_sort(union)
    nondominated = len({ind.config for ind in fronts[0]})
    proportion = tuner.Proportion(nondominated, len({ind.config for ind in union}))
    if mode == tuner.DUPLICATES_PARTIAL:
        reference_demote_duplicates(fronts)
    survivors = []
    for front in fronts:
        if len(survivors) >= capacity:
            break
        reference_crowding_distance(front)
        room = capacity - len(survivors)
        survivors += front if len(front) <= room else sorted(
            front, key=lambda ind: ind.crowding, reverse=True
        )[:room]
    return fronts, survivors, proportion


def survival_outcome(union, capacity, mode, survival):
    """What ``survival`` decides on a copy of ``union``, by position in it:
    fronts in member order, survivors in order, every rank and crowding,
    and p'."""
    union = [copy_individual(ind) for ind in union]
    fronts, survivors, proportion = survival(list(union), capacity, mode)
    position = {id(ind): i for i, ind in enumerate(union)}
    return (
        [[position[id(ind)] for ind in front] for front in fronts],
        [position[id(ind)] for ind in survivors],
        [(ind.rank, ind.crowding) for ind in union],
        proportion,
    )


def copy_individual(ind):
    twin = Individual(ind.config, ind.raw)
    twin.f_t_norm, twin.f_a_norm, twin.g1, twin.g2 = ind.f_t_norm, ind.f_a_norm, ind.g1, ind.g2
    return twin


def observed_survival(union, capacity, mode):
    """``select_survivors`` with the fronts it hands to ``fill_by_fronts``."""
    seen, fill_by_fronts = [], tuner.fill_by_fronts

    def fill(fronts, capacity):
        seen.append([list(front) for front in fronts])
        return fill_by_fronts(fronts, capacity)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tuner, "fill_by_fronts", fill)
        survivors, proportion = select_survivors(union, capacity, mode)
    return seen[0], survivors, proportion


def recorded_unions(specs, ps, seeds):
    """Every union that seeded NK(12, k=4) ``evolve`` runs sort in survival."""
    oracle = synthetic_landscape(12, 2, 4, seed=101)
    unions = []
    for spec in specs:
        for p in ps:
            params = TunerParams(budget=200, target_proportion=p)
            for seed in seeds:

                def observe(iteration, union):
                    unions.append([copy_individual(ind) for ind in union])

                tuner.evolve(oracle.space, oracle, params, seed, spec, union_observer=observe)
    return unions


@pytest.mark.parametrize("mode", tuner.DUPLICATES_MODES)
def test_survival_on_recorded_unions_matches_the_reference(mode):
    unions = recorded_unions(EVOLVE_SPECS, (0.05, 0.3, 1.0), (1, 2))
    assert len(unions) > 500
    assert any(len({ind.config for ind in union}) < len(union) for union in unions)
    for union in unions:
        assert survival_outcome(union, 10, mode, observed_survival) == survival_outcome(
            union, 10, mode, reference_survival
        )


@pytest.mark.parametrize("mode", tuner.DUPLICATES_MODES)
@settings(max_examples=200)
@given(union=meta_unions(), data=st.data())
def test_survival_matches_the_reference(mode, union, data):
    # copies may or may not share their point; the 1/8 grid ties g1 or g2
    capacity = data.draw(st.integers(1, len(union)))
    assert survival_outcome(union, capacity, mode, observed_survival) == survival_outcome(
        union, capacity, mode, reference_survival
    )


def test_a_lone_front_counts_each_configuration_once():
    # partial retention leaves the copies in the only front; p' is 2 / 2
    union = [make_meta_individual(i % 2, float(i % 2), float(1 - i % 2)) for i in range(5)]
    survivors, proportion = select_survivors(union, 3, tuner.DUPLICATES_PARTIAL)
    assert proportion == tuner.Proportion(nondominated=2, unique=2)
    assert len(survivors) == 3


def assert_stagnation_rule(rows):
    # o resets on a strict improvement of the best target, else counts up
    assert rows[0].o == 0
    for before, row in zip(rows, rows[1:]):
        assert row.o == (0 if row.best_f_t_raw < before.best_f_t_raw else before.o + 1), row


REPLAY_CASES = [partial(nk_case, budget=200), demo_table_case]


@pytest.mark.parametrize("case", REPLAY_CASES, ids=["nk", "demo-table"])
@pytest.mark.parametrize("spec", EVOLVE_SPECS, ids=lambda spec: spec.label)
def test_trajectory_replays_from_the_observed_unions(case, spec):
    # every row's b, best, o and w, rebuilt from the oracle's sample count,
    # the charges, the trigger stream and the unions the observer saw
    space, oracle, params = case()
    for seed in (1, 2, 3):
        run, unions, calls = observed_run(space, oracle, params, seed, spec)
        rows = run.trajectory
        assert_stagnation_rule(rows)
        assert all(row.best_f_t_raw == min(run.best_by_measurement[: row.b]) for row in rows)
        assert rows[-1].b == run.measurements_used
        trigger_rng = random.Random(f"trigger:{seed}")
        w = {"admmo": tuner.INITIAL_WEIGHT, "mmo_fixed": spec.fixed_w, "pmo": None}[spec.kind]
        assert rows[0].w == w
        for row in rows[1:]:
            assert row.b == calls[row.iteration], row
            if spec.kind == "admmo" and (
                spec.trigger_mode == tuner.TRIGGER_CONSTANT
                or should_trigger(row.o, row.b, params.budget, trigger_rng)
            ):
                w = adapt_weight(rebuilt(unions[row.iteration]), w, params.target_proportion)
            assert row.w == w, row


@pytest.mark.parametrize("case", REPLAY_CASES, ids=["nk", "demo-table"])
def test_ga_trajectory_replays_from_its_charges(case):
    space, oracle, params = case()
    for seed in (1, 2, 3):
        run = run_optimizer(OptimizerSpec("ga"), space, oracle, params, seed)
        rows = run.trajectory
        assert all(row.w is None and row.p_prime is None for row in rows)
        assert_stagnation_rule(rows)
        bs = [row.b for row in rows]
        assert bs == sorted(bs) and bs[-1] == run.measurements_used
        assert all(row.best_f_t_raw == run.best_by_measurement[row.b - 1] for row in rows)


@pytest.mark.parametrize("seed", [2, 4])
@pytest.mark.parametrize("spec", EVOLVE_SPECS + (OptimizerSpec("ga"),), ids=lambda spec: spec.label)
def test_run_stops_a_stall_cap_after_its_last_charge(spec, seed):
    # Boundary mutation moves the integer option only to 0 or 2 and crossover
    # only swaps genes, so with no 1 among the initial draws no 1 is charged.
    oracle = synthetic_landscape(2, [3, 2], k=1, seed=3)
    params = TunerParams(budget=6, population_size=2)
    state = tuner.seed_population(oracle.space, oracle, params, random.Random(seed))
    assert all(ind.config[0] != 1 for ind in state.population)
    run = run_optimizer(spec, oracle.space, oracle, params, seed)
    assert run.measurements_used < min(params.budget, oracle.space.size())
    last_charge = next(row for row in run.trajectory if row.b == run.measurements_used)
    assert run.trajectory[-1].iteration - last_charge.iteration == tuner.STALL_ITERATION_CAP


def test_each_generation_sorts_once_and_counts_p_prime_only_in_the_walk(monkeypatch):
    sorts, walks, walk_counts, stray_counts = [], [], [], []
    walking = [False]
    sort, adapt, count = (
        tuner.nondominated_sort,
        tuner.adapt_weight,
        tuner.unique_nondominated_proportion,
    )

    def counted_sort(pop):
        sorts.append(len(pop))
        return sort(pop)

    def counted_adapt(union, w, target):
        walks.append(w)
        walking[0] = True
        try:
            return adapt(union, w, target)
        finally:
            walking[0] = False

    def counted_count(union, w):
        (walk_counts if walking[0] else stray_counts).append(w)
        return count(union, w)

    monkeypatch.setattr(tuner, "nondominated_sort", counted_sort)
    monkeypatch.setattr(tuner, "adapt_weight", counted_adapt)
    monkeypatch.setattr(tuner, "unique_nondominated_proportion", counted_count)
    space, oracle, params = nk_case()
    for spec in EVOLVE_SPECS:
        sorts.clear()
        run = tuner.evolve(space, oracle, params, 1, spec)
        # once for row 0's initial population, once per generation's survival
        assert len(sorts) == len(run.trajectory)
    # the walk's closing count is the only one a run makes
    assert stray_counts == []
    assert len(walk_counts) == len(walks) > 0


@pytest.mark.parametrize("spec", EVOLVE_SPECS, ids=lambda spec: spec.label)
def test_first_mating_round_sees_the_plain_sort_of_the_initial_population(monkeypatch, spec):
    # under every duplicate policy, generation 0 keeps each copy at its
    # front's rank and crowds every front, as a sort and crowding alone do
    oracle = synthetic_landscape(2, [5, 2], k=1, seed=3)
    params = TunerParams(budget=10, population_size=6)
    ranked = []
    breed = tuner.breed

    def first_breed(state, *args):
        if not ranked:
            ranked.append([(ind.config, ind.rank, ind.crowding) for ind in state.population])
        return breed(state, *args)

    monkeypatch.setattr(tuner, "breed", first_breed)
    for seed in (1, 2, 3):
        ranked.clear()
        run = tuner.evolve(oracle.space, oracle, params, seed, spec)
        state = tuner.seed_population(oracle.space, oracle, params, random.Random(seed))
        population = state.population
        assert len({ind.config for ind in population}) < len(population)  # copies to demote
        normalize_union(population)
        tuner._set_objectives(population, run.trajectory[0].w)
        for front in nondominated_sort(population):
            tuner.crowding_distance(front)
        assert ranked == [[(ind.config, ind.rank, ind.crowding) for ind in population]]
