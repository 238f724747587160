"""Engine tests: sorting vs brute force, crowding, mating, variation."""

import math
import random
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admmo import (
    ConfigSpace,
    Configuration,
    OptionSpec,
    binary_tournament,
    boundary_mutation,
    crowding_distance,
    dominates,
    nondominated_sort,
    uniform_crossover,
)
from admmo.nsga2 import raw_target_winner, tournament_winner
from admmo.space import BINARY, CATEGORICAL

from conftest import (
    make_individual,
    make_meta_individual,
    meta_unions,
    mixed_spaces,
    nsga2_survival,
)


def brute_force_fronts(pop):
    """Reference partition: peel nondominated layers by definition."""
    remaining = list(pop)
    fronts = []
    while remaining:
        front = [
            ind for ind in remaining
            if not any(dominates(other, ind) for other in remaining if other is not ind)
        ]
        fronts.append(front)
        remaining = [ind for ind in remaining if ind not in front]
    return fronts


def reference_nondominated_sort(pop):
    """Deb et al.'s O(n^2) peel (NSGA-II, 2002), kept as the reference for
    the staircase sort: ``dominates`` on each pair, a list of the points
    each point dominates and a count of its dominators. Its fronts, their
    order included, and the ranks it writes are what ``nondominated_sort``
    must give."""
    size = len(pop)
    dominated_by = [[] for _ in range(size)]
    domination_count = [0] * size
    current = []
    for i in range(size):
        for j in range(i + 1, size):
            if dominates(pop[i], pop[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(pop[j], pop[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
        if domination_count[i] == 0:
            current.append(i)
            pop[i].rank = 0
    fronts = []
    rank = 0
    while current:
        fronts.append([pop[i] for i in current])
        nxt = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    pop[j].rank = rank + 1
                    nxt.append(j)
        current = nxt
        rank += 1
    return fronts


def assert_sorts_as_reference(pop):
    for ind in pop:
        ind.rank = None
    expected = reference_nondominated_sort(pop)
    expected_ranks = [ind.rank for ind in pop]
    for ind in pop:
        ind.rank = None
    fronts = nondominated_sort(pop)
    assert [list(map(id, f)) for f in fronts] == [list(map(id, f)) for f in expected]
    assert [ind.rank for ind in pop] == expected_ranks


class TestNondominatedSort:
    def test_hand_example(self):
        pop = [
            make_meta_individual(0, 1, 2),
            make_meta_individual(1, 2, 1),
            make_meta_individual(2, 3, 3),
        ]
        fronts = nondominated_sort(pop)
        assert [len(f) for f in fronts] == [2, 1]
        assert fronts[1][0] is pop[2]
        assert [ind.rank for ind in pop] == [0, 0, 1]

    def test_identical_points_single_front(self):
        pop = [make_meta_individual(i, 0.5, 0.5) for i in range(5)]
        fronts = nondominated_sort(pop)
        assert len(fronts) == 1 and len(fronts[0]) == 5

    def test_matches_brute_force_on_random_points(self):
        rng = random.Random(99)
        for _ in range(100):
            pop = [
                make_meta_individual(i, rng.random(), rng.random())
                for i in range(rng.randint(1, 12))
            ]
            fast = nondominated_sort(list(pop))
            slow = brute_force_fronts(pop)
            assert [set(map(id, f)) for f in fast] == [set(map(id, f)) for f in slow]

    @settings(max_examples=300)
    @given(union=meta_unions())
    # B alone dominates C and A alone dominates D, so the peel's front 1 is
    # [D, C]: a later front is not in population order
    @example(union=[
        make_meta_individual(0, 0.0, 1.0),
        make_meta_individual(1, 1.0, 0.0),
        make_meta_individual(2, 1.5, 0.5),
        make_meta_individual(3, 0.5, 1.5),
    ])
    def test_same_fronts_and_ranks_as_the_reference(self, union):
        assert_sorts_as_reference(union)

    @pytest.mark.parametrize("w", [k / 10 for k in range(11)])
    def test_near_tie_pair_as_the_reference(self, w):
        # at w=0.3 the pair's g1 round equal and g2 apart: one dominates
        pop = [
            make_individual(0, f_t_norm=0.5, f_a_norm=0.0, w=w),
            make_individual(1, f_t_norm=0.5, f_a_norm=1e-16, w=w),
        ]
        assert_sorts_as_reference(pop)
        assert_sorts_as_reference(pop[::-1])

    def test_signed_zeros_are_equal_points(self):
        pop = [make_meta_individual(0, 0.0, -0.0), make_meta_individual(1, -0.0, 0.0)]
        assert [len(f) for f in nondominated_sort(pop)] == [2]
        assert_sorts_as_reference(pop)

    def test_partition_sizes_sum_to_population(self):
        rng = random.Random(100)
        pop = [make_meta_individual(i, rng.random(), rng.random()) for i in range(30)]
        fronts = nondominated_sort(pop)
        assert sum(len(f) for f in fronts) == 30


class TestCrowdingDistance:
    def test_front_of_two_both_infinite(self):
        front = [make_meta_individual(0, 0, 1), make_meta_individual(1, 1, 0)]
        crowding_distance(front)
        assert all(ind.crowding == math.inf for ind in front)

    def test_middle_point_gap_sum(self):
        front = [
            make_meta_individual(0, 0.0, 1.0),
            make_meta_individual(1, 0.5, 0.5),
            make_meta_individual(2, 1.0, 0.0),
        ]
        crowding_distance(front)
        assert front[0].crowding == math.inf
        assert front[2].crowding == math.inf
        assert front[1].crowding == pytest.approx(2.0)

    def test_singleton_front_infinite(self):
        front = [make_meta_individual(0, 0.3, 0.3)]
        crowding_distance(front)
        assert front[0].crowding == math.inf


class TestBinaryTournament:
    def test_lower_rank_wins(self):
        a = make_meta_individual(0, 0, 0)
        b = make_meta_individual(1, 1, 1)
        a.rank, b.rank = 0, 1
        a.crowding = b.crowding = 1.0
        assert tournament_winner(a, b, random.Random(0)) is a
        assert tournament_winner(b, a, random.Random(0)) is a

    def test_crowding_breaks_rank_ties(self):
        a = make_meta_individual(0, 0, 0)
        b = make_meta_individual(1, 1, 1)
        a.rank = b.rank = 0
        a.crowding, b.crowding = math.inf, 1.0
        assert tournament_winner(a, b, random.Random(0)) is a
        assert tournament_winner(b, a, random.Random(0)) is a

    def test_identical_candidate_drawn_twice(self):
        a = make_meta_individual(0, 0, 0)
        a.rank, a.crowding = 0, 1.0
        assert tournament_winner(a, a, random.Random(0)) is a

    def test_lower_raw_target_wins(self):
        a, b = make_individual(0, f_t=1.0), make_individual(1, f_t=2.0)
        for rng_seed in range(5):
            assert raw_target_winner(a, b, random.Random(rng_seed)) is a
            assert raw_target_winner(b, a, random.Random(rng_seed)) is a

    def test_raw_target_ties_flip_a_coin(self):
        a, b = make_individual(0, f_t=1.0), make_individual(1, f_t=1.0)
        winners = [raw_target_winner(a, b, random.Random(s)) for s in range(20)]
        assert any(w is a for w in winners) and any(w is b for w in winners)

    def test_returns_pair_from_population(self):
        pop = [make_meta_individual(i, i / 10, 1 - i / 10) for i in range(6)]
        for ind in pop:
            ind.rank, ind.crowding = 0, 1.0
        rng = random.Random(7)
        x, y = binary_tournament(pop, rng)
        assert x in pop and y in pop


def indexed_tournament(pop, rng):
    """Reference: ``binary_tournament`` drawing by ``randrange`` indices."""
    def pick():
        a = pop[rng.randrange(len(pop))]
        b = pop[rng.randrange(len(pop))]
        return tournament_winner(a, b, rng)

    return pick(), pick()


def indexed_raw_target_tournament(population, rng):
    """Reference: the GA's tournament drawing by ``randrange`` indices."""
    def pick():
        a = population[rng.randrange(len(population))]
        b = population[rng.randrange(len(population))]
        if a.raw.f_t != b.raw.f_t:
            return a if a.raw.f_t < b.raw.f_t else b
        return a if rng.random() < 0.5 else b

    return pick(), pick()


class TestDrawEquivalence:
    """The operators draw with ``rng.choice`` and copy a configuration only
    once a gene mutates; they must pick and consume exactly what the
    ``randrange``-indexed, always-copying versions did."""

    @settings(max_examples=200)
    @given(
        keys=st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from([1.0, 2.0, math.inf]), st.integers(0, 3)),
            min_size=1,
            max_size=20,
        ),
        seed=st.integers(0, 2**32),
    )
    def test_tournaments_pick_and_draw_as_indexed(self, keys, seed):
        pop = []
        for i, (rank, crowding, f_t) in enumerate(keys):
            ind = make_individual(i, f_t=float(f_t))
            ind.rank, ind.crowding = rank, crowding
            pop.append(ind)
        for operator, reference in (
            (binary_tournament, indexed_tournament),
            (partial(binary_tournament, winner=raw_target_winner), indexed_raw_target_tournament),
        ):
            rng, expected_rng = random.Random(seed), random.Random(seed)
            for _ in range(5):
                got, expected = operator(pop, rng), reference(pop, expected_rng)
                assert got[0] is expected[0] and got[1] is expected[1]
                assert rng.getstate() == expected_rng.getstate()

    @staticmethod
    def copying_mutation(config, rate, space, rng):
        """Reference: the mutation as it was, copying ``values`` up front
        and building a new configuration; also says whether a gene moved."""
        values = list(config.values)
        mutated = False
        for i, opt in enumerate(space.options):
            if rng.random() >= rate:
                continue
            mutated = True
            if opt.kind == BINARY:
                values[i] = 1 - values[i]
            elif opt.kind == CATEGORICAL:
                others = [lvl for lvl in opt.levels if lvl != values[i]]
                values[i] = others[rng.randrange(len(others))]
            else:
                values[i] = opt.lo if rng.random() < 0.5 else opt.hi
        return Configuration(tuple(values)), mutated

    @settings(max_examples=200)
    @given(
        space=mixed_spaces(),
        rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        seed=st.integers(0, 2**32),
    )
    def test_mutation_and_crossover_draw_as_copying(self, space, rate, seed):
        rng, expected_rng = random.Random(seed), random.Random(seed)
        for _ in range(10):
            x, y = space.random_config(rng), space.random_config(rng)
            assert (x, y) == (space.random_config(expected_rng), space.random_config(expected_rng))
            # crossover draws as it did, one rng.random per gene; run on both
            # streams, it keeps them in step and gives the children to mutate
            children = uniform_crossover(x, y, 0.9, rng)
            assert children == uniform_crossover(x, y, 0.9, expected_rng)
            for child in children:
                got = boundary_mutation(child, rate, space, rng)
                expected, mutated = self.copying_mutation(child, rate, space, expected_rng)
                assert got.values == expected.values
                assert (got is child) == (not mutated)
                assert rng.getstate() == expected_rng.getstate()


class TestUniformCrossover:
    def test_identical_parents_identical_children(self):
        x = Configuration((0, 1, 0, 1))
        rng = random.Random(1)
        for rate in (0.0, 0.5, 1.0):
            c1, c2 = uniform_crossover(x, x, rate, rng)
            assert c1 == x and c2 == x

    def test_rate_zero_returns_parents(self):
        x, y = Configuration((0, 0, 0)), Configuration((1, 1, 1))
        c1, c2 = uniform_crossover(x, y, 0.0, random.Random(3))
        assert (c1, c2) == (x, y)

    def test_swap_frequency_is_half(self):
        n = 10_000
        x = Configuration(tuple([0] * n))
        y = Configuration(tuple([1] * n))
        rng = random.Random(11)
        swapped = 0
        repetitions = 5
        for _ in range(repetitions):
            c1, _ = uniform_crossover(x, y, 1.0, rng)
            swapped += sum(c1.values)
        frequency = swapped / (n * repetitions)
        assert abs(frequency - 0.5) < 0.02

    def test_gene_multiset_preserved(self):
        x = Configuration((0, 1, 2, 3, 4))
        y = Configuration((5, 6, 7, 8, 9))
        c1, c2 = uniform_crossover(x, y, 1.0, random.Random(8))
        for i in range(5):
            assert {c1.values[i], c2.values[i]} == {x.values[i], y.values[i]}


class TestBoundaryMutation:
    SPACE = ConfigSpace(
        (
            OptionSpec.binary("b"),
            OptionSpec.integer("i", 0, 9),
            OptionSpec.categorical("c", ("r", "g", "b")),
        )
    )

    def test_rate_zero_unchanged(self):
        cfg = Configuration((1, 4, "g"))
        assert boundary_mutation(cfg, 0.0, self.SPACE, random.Random(0)) == cfg

    def test_binary_gene_flips(self):
        space = ConfigSpace((OptionSpec.binary("b"),))
        assert boundary_mutation(Configuration((0,)), 1.0, space, random.Random(0)).values == (1,)
        assert boundary_mutation(Configuration((1,)), 1.0, space, random.Random(0)).values == (0,)

    def test_integer_jumps_to_boundaries_evenly(self):
        space = ConfigSpace((OptionSpec.integer("i", 0, 9),))
        rng = random.Random(21)
        outcomes = [
            boundary_mutation(Configuration((4,)), 1.0, space, rng).values[0]
            for _ in range(10_000)
        ]
        assert set(outcomes) == {0, 9}
        assert abs(outcomes.count(0) / len(outcomes) - 0.5) < 0.03

    def test_categorical_moves_to_other_level(self):
        space = ConfigSpace((OptionSpec.categorical("c", ("r", "g", "b")),))
        rng = random.Random(5)
        outcomes = {
            boundary_mutation(Configuration(("g",)), 1.0, space, rng).values[0]
            for _ in range(100)
        }
        assert outcomes == {"r", "b"}

    def test_variation_closure(self, small_space):
        rng = random.Random(17)
        for _ in range(300):
            x = small_space.random_config(rng)
            y = small_space.random_config(rng)
            c1, c2 = uniform_crossover(x, y, 0.9, rng)
            m1 = boundary_mutation(c1, 0.5, small_space, rng)
            m2 = boundary_mutation(c2, 0.5, small_space, rng)
            assert small_space.validate(m1) and small_space.validate(m2)

    def test_determinism_same_seed(self):
        cfg = Configuration((1, 4, "g"))
        a = boundary_mutation(cfg, 0.7, self.SPACE, random.Random(42))
        b = boundary_mutation(cfg, 0.7, self.SPACE, random.Random(42))
        assert a == b


class TestSurvival:
    def test_keeps_whole_fronts_then_crowds(self):
        rng = random.Random(55)
        union = [make_meta_individual(i, rng.random(), rng.random()) for i in range(20)]
        survivors = nsga2_survival(union, 10)
        assert len(survivors) == 10
        # survivors are closed under "dominated only by other survivors or better"
        ranks = sorted(ind.rank for ind in survivors)
        dropped = [ind for ind in union if ind not in survivors]
        assert all(ind.rank >= ranks[-1] for ind in dropped)
