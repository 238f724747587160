"""Two-objective NSGA-II machinery: sorting, crowding, mating, variation.

All stochastic operations consume an explicitly passed random.Random so a
run is reproducible from its seed alone.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from .mmo import Individual
from .space import BINARY, CATEGORICAL, ConfigSpace, Configuration


def nondominated_sort(pop: list[Individual]) -> list[list[Individual]]:
    """Fast nondominated sort on (g1, g2); writes ranks back.

    Front 0 is the nondominated set; every member of front i+1 is
    dominated by at least one member of an earlier front. The pair loop is
    Deb et al.'s O(n^2) one, with ``mmo.dominates`` inlined on local
    floats: the order within each front is part of the output, since
    crowding ties, duplicate representatives and tournament picks
    follow it.
    """
    size = len(pop)
    g = [(ind.g1, ind.g2) for ind in pop]
    dominated_by: list[list[int]] = [[] for _ in range(size)]
    domination_count = [0] * size
    current: list[int] = []
    for i in range(size):
        a1, a2 = g[i]
        beats = dominated_by[i]
        for j in range(i + 1, size):
            b1, b2 = g[j]
            if a1 <= b1 and a2 <= b2:
                # equal points dominate neither way
                if a1 < b1 or a2 < b2:
                    beats.append(j)
                    domination_count[j] += 1
            elif b1 <= a1 and b2 <= a2:
                dominated_by[j].append(i)
                domination_count[i] += 1
        if domination_count[i] == 0:
            current.append(i)
            pop[i].rank = 0

    fronts: list[list[Individual]] = []
    rank = 0
    while current:
        fronts.append([pop[i] for i in current])
        nxt: list[int] = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    pop[j].rank = rank + 1
                    nxt.append(j)
        current = nxt
        rank += 1
    return fronts


def crowding_distance(front: list[Individual]) -> None:
    """Standard crowding on (g1, g2), written back to the individuals.

    Boundary individuals per objective get +inf; interior ones sum the
    normalized gaps of their neighbors. Zero-range objectives contribute
    nothing.
    """
    if not front:
        raise ValueError("crowding distance of an empty front")
    for ind in front:
        ind.crowding = 0.0
    if len(front) <= 2:
        for ind in front:
            ind.crowding = math.inf
        return
    for key in (lambda ind: ind.g1, lambda ind: ind.g2):
        ordered = sorted(front, key=key)
        lo, hi = key(ordered[0]), key(ordered[-1])
        ordered[0].crowding = math.inf
        ordered[-1].crowding = math.inf
        span = hi - lo
        if span <= 0:
            continue
        for left, mid, right in zip(ordered, ordered[1:], ordered[2:]):
            mid.crowding += (key(right) - key(left)) / span


def tournament_winner(a: Individual, b: Individual, rng: random.Random) -> Individual:
    """Lower rank wins; ties go to larger crowding; full ties flip a coin."""
    if a.rank != b.rank:
        return a if a.rank < b.rank else b
    if a.crowding != b.crowding:
        return a if a.crowding > b.crowding else b
    return a if rng.random() < 0.5 else b


def raw_target_winner(a: Individual, b: Individual, rng: random.Random) -> Individual:
    """Lower raw target wins; ties flip a coin."""
    if a.raw.f_t != b.raw.f_t:
        return a if a.raw.f_t < b.raw.f_t else b
    return a if rng.random() < 0.5 else b


def binary_tournament(
    pop: list[Individual],
    rng: random.Random,
    winner: Callable[[Individual, Individual, random.Random], Individual] = tournament_winner,
) -> tuple[Individual, Individual]:
    """Pick a mating pair; each parent is the ``winner`` of two uniform draws."""
    def pick() -> Individual:
        return winner(rng.choice(pop), rng.choice(pop), rng)

    return pick(), pick()


def uniform_crossover(
    x: Configuration, y: Configuration, rate: float, rng: random.Random
) -> tuple[Configuration, Configuration]:
    """With probability ``rate``, swap each gene between children with
    probability 0.5; otherwise the children are copies of the parents."""
    if rng.random() >= rate:
        return x, y
    left = list(x)
    right = list(y)
    draw = rng.random
    for i in range(len(left)):
        if draw() < 0.5:
            left[i], right[i] = right[i], left[i]
    return Configuration(left), Configuration(right)


def boundary_mutation(
    config: Configuration, rate: float, space: ConfigSpace, rng: random.Random
) -> Configuration:
    """Mutate each gene independently with probability ``rate``.

    Integer genes jump to their domain's lo or hi with equal probability,
    binary genes flip, categorical genes move uniformly to another level.
    A configuration no gene of which mutates is returned as it is.
    """
    draw = rng.random
    values = None
    for i, opt in enumerate(space.options):
        if draw() >= rate:
            continue
        if values is None:
            values = list(config)
        if opt.kind == BINARY:
            values[i] = 1 - values[i]
        elif opt.kind == CATEGORICAL:
            values[i] = rng.choice([lvl for lvl in opt.levels if lvl != values[i]])
        else:
            values[i] = opt.lo if draw() < 0.5 else opt.hi
    return config if values is None else Configuration(values)


def fill_by_fronts(fronts: list[list[Individual]], capacity: int) -> list[Individual]:
    """Whole fronts while they fit, then the most crowded individuals of
    the first front that does not. Crowding is computed for every front
    the fill reaches."""
    survivors: list[Individual] = []
    for front in fronts:
        if len(survivors) >= capacity:
            break
        crowding_distance(front)
        room = capacity - len(survivors)
        if len(front) <= room:
            survivors.extend(front)
        else:
            ranked = sorted(front, key=lambda ind: ind.crowding, reverse=True)
            survivors.extend(ranked[:room])
    return survivors


def nsga2_survival(union: list[Individual], capacity: int) -> list[Individual]:
    """Plain NSGA-II survival: fill by the fronts of the union."""
    return fill_by_fronts(nondominated_sort(union), capacity)
