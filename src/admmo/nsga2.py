"""Two-objective NSGA-II machinery: sorting, crowding, mating, variation.

All stochastic operations consume an explicitly passed random.Random so a
run is reproducible from its seed alone.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import deque
from operator import attrgetter
from typing import Callable

from .mmo import Individual
from .space import BINARY, CATEGORICAL, ConfigSpace, Configuration


def nondominated_sort(pop: list[Individual]) -> list[list[Individual]]:
    """Nondominated sort on (g1, g2) as a 2-D staircase; writes ranks back.

    Front 0 is the nondominated set; every member of front i+1 is
    dominated by a member of front i. Points are visited in (g1, g2)
    order, and each joins the first front whose last point does not
    dominate it, found by bisection over the fronts' (g2, g1) tails
    (Jensen 2003); exact copies land in the same front. The order within
    each front is part of the output, since crowding ties, duplicate
    representatives and tournament picks follow it, so it is the order of
    Deb et al.'s peel: front 0 in population order, each later front by
    the position of a member's last dominator in the front before, then
    by population index.
    """
    g = [(ind.g1, ind.g2) for ind in pop]
    tails: list[tuple[float, float]] = []
    keys: list[list[tuple]] = []  # per front, each member's (last dominator's key, index)
    # each front's members, as (g2, key), that may still be a later
    # point's last dominator; both g2 and key fall along the deque
    peaks: list[deque] = []
    for i in sorted(range(len(pop)), key=g.__getitem__):
        g1, g2 = g[i]
        k = bisect_left(tails, (g2, g1))
        if k == len(tails):
            tails.append((g2, g1))
            keys.append([])
            peaks.append(deque())
        tails[k] = (g2, g1)
        pop[i].rank = k
        key = (i,)
        if k:
            # the point's dominators in the front before are those of its
            # members so far whose g2 is at most the point's
            window = peaks[k - 1]
            while window[0][0] > g2:
                window.popleft()
            key = (window[0][1], i)
        keys[k].append(key)
        peak = peaks[k]
        while peak and peak[-1][1] < key:
            peak.pop()
        peak.append((g2, key))
    return [[pop[key[-1]] for key in sorted(front)] for front in keys]


# the meta-objectives crowding sorts a front on, each read into a list once
OBJECTIVES = (attrgetter("g1"), attrgetter("g2"))


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
    for key in OBJECTIVES:
        ordered = sorted(front, key=key)
        values = list(map(key, ordered))
        ordered[0].crowding = math.inf
        ordered[-1].crowding = math.inf
        span = values[-1] - values[0]
        if span <= 0:
            continue
        for mid, left, right in zip(ordered[1:-1], values, values[2:]):
            mid.crowding += (right - left) / span


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
    choice = rng.choice
    return winner(choice(pop), choice(pop), rng), winner(choice(pop), choice(pop), rng)


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
