"""The adaptive-weight tuner.

The main loop is a budgeted NSGA-II over the weighted meta-objectives
with three additions:

* a progressive trigger that fires weight adaptation with a probability
  growing in the stagnation count and the consumed budget fraction;
* weight adaptation that walks w until the proportion of unique
  nondominated configurations reaches a target level;
* partial duplicate retention in survival, which demotes same-front
  duplicates to the next front instead of deleting them, so good
  duplicates may still survive without drowning the selection.

The pieces every population-based run shares live here too: the seeded
initial population, the stop rule, the offspring loop and the packaging
of a finished run, along with the fixed settings every run uses and the
``OptimizerSpec`` that names which variant a run is.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import neg
from typing import Callable, Iterable, Iterator, NamedTuple

from .mmo import Individual, compute_meta_union, normalize_union
from .nsga2 import (
    binary_tournament,
    boundary_mutation,
    crowding_distance,
    fill_by_fronts,
    nondominated_sort,
    uniform_crossover,
)
from .oracles import BudgetLedger, MeasurementOracle, measure
from .space import ConfigSpace, Configuration


# Settings every run shares. The trigger's tolerance offset T and cut-off
# probability C:
TRIGGER_OFFSET = 1
CUTOFF_PROBABILITY = 0.5
# The weight walk: its coarse and fine steps, its bounds, the most steps
# one adaptation may walk, and the weight a run starts from:
COARSE_STEP = 0.1
FINE_STEP = 1e-4
WEIGHT_MIN = 0.0
WEIGHT_MAX = 1e3
ADAPT_ITERATION_CAP = 10_000
INITIAL_WEIGHT = 1.0
# Variation rates, and how many iterations in a row may charge nothing
# before a run stops:
MUTATION_RATE = 0.1
CROSSOVER_RATE = 0.9
STALL_ITERATION_CAP = 1_000

# duplicate policies of survival and trigger modes of the adaptive tuner
DUPLICATES_PARTIAL = "partial"
DUPLICATES_INDISTINCT = "indistinct"
DUPLICATES_REMOVE_ALL = "remove_all"
TRIGGER_PROGRESSIVE = "progressive"
TRIGGER_CONSTANT = "constant"

KINDS = ("admmo", "mmo_fixed", "pmo", "rs", "ga")
DUPLICATES_MODES = (DUPLICATES_PARTIAL, DUPLICATES_INDISTINCT, DUPLICATES_REMOVE_ALL)
TRIGGER_MODES = (TRIGGER_PROGRESSIVE, TRIGGER_CONSTANT)


@dataclass(frozen=True)
class TunerParams:
    """The numbers a run is given; defaults follow the standard setup. The
    messages name the run-spec's keys: ``target_proportion`` is its ``p``."""

    budget: int
    population_size: int = 10
    target_proportion: float = 0.3

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("'population_size' must be at least 2")
        if not 0 < self.target_proportion <= 1:
            raise ValueError("p must lie in (0, 1]")


@dataclass(frozen=True)
class OptimizerSpec:
    """Which optimizer to run, plus the ablation flags for the tuner.

    ``duplicates_mode`` and ``trigger_mode`` may only be changed for
    kind="admmo", and ``fixed_w`` only for kind="mmo_fixed", where it must
    be a weight within the walk's bounds.
    """

    kind: str
    duplicates_mode: str = DUPLICATES_PARTIAL
    trigger_mode: str = TRIGGER_PROGRESSIVE
    fixed_w: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.duplicates_mode not in DUPLICATES_MODES:
            raise ValueError(f"unknown duplicates mode {self.duplicates_mode!r}")
        if self.trigger_mode not in TRIGGER_MODES:
            raise ValueError(f"unknown trigger mode {self.trigger_mode!r}")
        if self.kind != "admmo" and (
            self.duplicates_mode != DUPLICATES_PARTIAL or self.trigger_mode != TRIGGER_PROGRESSIVE
        ):
            raise ValueError(f"{self.kind} takes no duplicates_mode or trigger_mode")
        if self.kind != "mmo_fixed" and self.fixed_w != 1.0:
            raise ValueError(f"{self.kind} takes no fixed_w")
        if not WEIGHT_MIN <= self.fixed_w <= WEIGHT_MAX:
            raise ValueError(
                f"fixed_w must lie in [{WEIGHT_MIN:g}, {WEIGHT_MAX:g}], got {self.fixed_w}"
            )

    @property
    def label(self) -> str:
        """Conventional short name; tuner variants get i/r/c suffixes."""
        if self.kind != "admmo":
            return self.kind
        suffix = ""
        if self.duplicates_mode == DUPLICATES_INDISTINCT:
            suffix += "i"
        elif self.duplicates_mode == DUPLICATES_REMOVE_ALL:
            suffix += "r"
        if self.trigger_mode == TRIGGER_CONSTANT:
            suffix += "c"
        return f"admmo_{suffix}" if suffix else "admmo"


@dataclass(frozen=True)
class Proportion:
    """Unique-configuration counts behind p' = nondominated / unique."""

    nondominated: int
    unique: int

    @property
    def value(self) -> float:
        return self.nondominated / self.unique

    @classmethod
    def of_front(cls, front: list[Individual], union: list[Individual]) -> Proportion:
        """Read off a sort's front 0 before any demotion, which holds every
        copy of each nondominated configuration of ``union``."""
        return cls(len({ind.config for ind in front}), len({ind.config for ind in union}))


class IterationRecord(NamedTuple):
    """One trajectory row; its fields are the trajectory table's columns."""

    iteration: int
    b: int
    w: float | None
    p_prime: float | None
    o: int | None
    best_f_t_raw: float


@dataclass
class TunerState:
    """The state of one population-based run: its ledger, population and
    best target value so far, its weight (None for a run that searches the
    plain objectives), stagnation count and trajectory."""

    ledger: BudgetLedger
    population: list[Individual]
    best_f_t: float
    w: float | None = None
    stagnation: int = 0
    trajectory: list[IterationRecord] = field(default_factory=list)

    def record(self, iteration: int, p_prime: float | None) -> None:
        """Append the trajectory row of ``iteration``."""
        row = (iteration, self.ledger.consumed, self.w, p_prime, self.stagnation, self.best_f_t)
        self.trajectory.append(IterationRecord(*row))


@dataclass(frozen=True)
class TuningRun:
    """Everything a finished run reports.

    ``best_by_measurement[i]`` is the best target value after the first
    i+1 charged measurements, so any smaller budget's outcome can be read
    off the same run. ``best_config`` is the first charged configuration
    with the least target value: ties go to the one charged first.
    """

    optimizer: str
    best_config: Configuration
    best_f_t: float
    best_f_a: float
    measurements_used: int
    trajectory: tuple[IterationRecord, ...]
    best_by_measurement: tuple[float, ...]


def trigger_probability(o: int, consumed: int, budget: int) -> float:
    """Probability of firing weight adaptation.

    Zero while the stagnation count o is within ``TRIGGER_OFFSET``; beyond
    it the probability rises with o and with the consumed share of the
    budget (slope term S = budget / consumed), approaching
    ``CUTOFF_PROBABILITY`` from below at S^2 iterations beyond the offset.
    """
    if consumed < 1 or budget < consumed:
        raise ValueError("need 1 <= consumed <= budget")
    slope = budget / consumed
    return 1.0 - math.exp(math.log(CUTOFF_PROBABILITY) * max(0, o - TRIGGER_OFFSET) / slope**2)


def should_trigger(o: int, consumed: int, budget: int, rng: random.Random) -> bool:
    """Bernoulli draw against :func:`trigger_probability`.

    A zero probability returns False without consuming randomness.
    """
    prob = trigger_probability(o, consumed, budget)
    if prob <= 0.0:
        return False
    return rng.random() < prob


def split_duplicates(group: list[Individual]) -> tuple[list[Individual], list[Individual]]:
    """Split into the first-encountered representative of each duplicate
    group and the surplus duplicates, both in their original order."""
    seen: set[Configuration] = set()
    unique: list[Individual] = []
    surplus: list[Individual] = []
    for ind in group:
        if ind.config in seen:
            surplus.append(ind)
        else:
            seen.add(ind.config)
            unique.append(ind)
    return unique, surplus


def unique_nondominated_proportion(union: list[Individual], w: float) -> Proportion:
    """Recompute meta-objectives at ``w`` and count p' = n_d / n_u.

    Counts the distinct configurations that no other one dominates, which
    is front 0 of a nondominated sort without the sort; ranks are left
    untouched. In two objectives that is one sweep over the first copy's
    (g1, g2) of each configuration, sorted: nothing later in that order
    can dominate a point, and something earlier does unless the point's
    g2 is below every earlier g2, or equals the least of them with the
    same g1 as the first point that reached it.
    """
    compute_meta_union(union, w)
    seen: dict[Configuration, tuple[float, float]] = {}
    for ind in union:
        seen.setdefault(ind.config, (ind.g1, ind.g2))
    nondominated = 0
    best1 = best2 = math.inf
    for g1, g2 in sorted(seen.values()):
        if g2 < best2:
            best1, best2 = g1, g2
            nondominated += 1
        elif g2 == best2 and g1 == best1:
            nondominated += 1
    return Proportion(nondominated=nondominated, unique=len(seen))


def extend_walk(points: list[float], up: bool, length: int) -> None:
    """Extend the weight walk's points to ``length``, from its last point.

    Going up, each point is the last plus 0.1, capped at ``WEIGHT_MAX``.
    Going down, it is the last minus 0.1 while that stays at or above 0.1,
    then the last minus 1e-4, floored at ``WEIGHT_MIN``. ``accumulate``
    adds the step point after point, as a step-by-step loop does, so the
    floats are the same (x + -s is x - s in IEEE arithmetic), with no
    Python statement per point. Only a run of steps that ends past its
    edge is cut, where ``bisect`` finds the first point past it: a bound
    holds from there on, and below 0.1 the walk goes on in fine steps.
    """
    start, x = len(points), points[-1]
    coarse = up or x - COARSE_STEP >= 0.1
    steps = accumulate(
        repeat(COARSE_STEP if up else -COARSE_STEP if coarse else -FINE_STEP, length - start),
        initial=x,
    )
    next(steps)  # x itself
    points.extend(steps)
    # going down the points descend, so bisect their negations
    if up:
        if points[-1] > WEIGHT_MAX:
            cut = bisect_right(points, WEIGHT_MAX, start)
            points[cut:] = repeat(WEIGHT_MAX, length - cut)
    elif coarse:
        if points[-1] < 0.1:
            del points[bisect_right(points, -0.1, start, key=neg) :]
            extend_walk(points, up, length)
    elif points[-1] < WEIGHT_MIN:
        cut = bisect_right(points, -WEIGHT_MIN, start, key=neg)
        points[cut:] = repeat(WEIGHT_MIN, length - cut)


def weight_thresholds(unique: Iterable[Individual]) -> list[float]:
    """The sorted threshold weights of the distinct configurations ``unique``:
    (t, a) dominates (t', a') at w >= 0 iff t < t' and w * |a - a'| <= t' - t,
    so (t', a') is nondominated iff w exceeds the largest (t' - t) / |a - a'|
    over the configurations with t < t': +inf if one has a = a', -inf if there
    is none. p' at w is ``bisect_left(thresholds, w) / len(thresholds)``.
    """
    points = sorted((ind.f_t_norm, ind.f_a_norm) for ind in unique)
    thresholds = []
    for t, a in points:
        theta = -math.inf
        try:
            for t0, a0 in points:
                if t0 == t:  # past the points with a lower t
                    break
                ratio = (t - t0) / abs(a0 - a)
                if ratio > theta:
                    theta = ratio
        except ZeroDivisionError:  # a lower t with the same a
            theta = math.inf
        thresholds.append(theta)
    return sorted(thresholds)


def adapt_weight(union: list[Individual], w: float, target: float) -> float:
    """Walk the weight until the unique-nondominated proportion hits ``target``.

    The walk's points run from w up (p' < target) in coarse steps of 0.1,
    or down (p' > target) in steps of 0.1 while w would stay at or above
    0.1 and in fine steps of 1e-4 below that. The walk stops at its first
    point that hits the target exactly, that crosses it (keeping whichever
    of the two last points has the closer p', the smaller w on ties) or
    that lies on the bound it heads for; after ``ADAPT_ITERATION_CAP``
    points without a stop it ends on the next point. It never turns round.

    p' is read off :func:`weight_thresholds`, so "the walk stops here" is
    false and then true along the points: their number is doubled until
    one stops the walk, and one bisection finds the first. The union's
    meta-objectives are left computed at the returned weight.
    """
    thresholds = weight_thresholds({ind.config: ind for ind in union}.values())

    def gap(x: float) -> float:
        return bisect_left(thresholds, x) / len(thresholds) - target

    def stops(x: float) -> bool:
        return (gap(x) >= 0 or x >= WEIGHT_MAX) if up else (gap(x) <= 0 or x <= WEIGHT_MIN)

    up = gap(w) < 0
    points = [w]
    while not stops(points[-1]) and len(points) <= ADAPT_ITERATION_CAP:
        extend_walk(points, up, min(2 * len(points), ADAPT_ITERATION_CAP + 1))
    i = min(bisect_left(points, True, key=stops), ADAPT_ITERATION_CAP)
    if i < ADAPT_ITERATION_CAP and (gap(points[i]) > 0 if up else gap(points[i]) < 0):
        # Oscillation: the nearer p' wins, and on a tie the smaller w, i - 1 going up.
        before, after = abs(gap(points[i - 1])), abs(gap(points[i]))
        if before < after or (before == after and up):
            i -= 1
    unique_nondominated_proportion(union, points[i])
    return points[i]


def demote_duplicates(fronts: list[list[Individual]]) -> None:
    """Partial duplicate retention on sorted fronts, in place.

    Walking the fronts in order, the surplus copies of each configuration
    in a front are demoted into the next one (and may cascade further),
    taking its rank, so front 0 holds exactly the unique nondominated
    configurations and the best-placed copy is ranked highest. The last
    front has no successor and keeps its copies. The paper does not fix
    where demoted copies go within the next front: they are appended
    after its members, an order that only the golden digests pin.
    """
    for i in range(len(fronts) - 1):
        fronts[i], demoted = split_duplicates(fronts[i])
        for ind in demoted:
            ind.rank = i + 1
        fronts[i + 1] += demoted


def select_survivors(
    union: list[Individual], capacity: int, duplicates_mode: str
) -> tuple[list[Individual], Proportion]:
    """Survival selection under one of the three duplicate policies, with
    the union's p' read off the one nondominated sort it makes: partial
    retention (default), indistinct (plain NSGA-II on the full union), or
    remove_all (one representative per configuration, shrinking the
    population if too few uniques remain). Fronts are filled as in NSGA-II.
    """
    if duplicates_mode == DUPLICATES_REMOVE_ALL:
        union, _ = split_duplicates(union)
        capacity = min(capacity, len(union))
    elif duplicates_mode not in DUPLICATES_MODES:
        raise ValueError(f"unknown duplicates mode {duplicates_mode!r}")
    elif len(union) < capacity:
        raise ValueError(f"union of {len(union)} cannot fill a population of {capacity}")
    fronts = nondominated_sort(union)
    proportion = Proportion.of_front(fronts[0], union)
    if duplicates_mode == DUPLICATES_PARTIAL:
        demote_duplicates(fronts)
    return fill_by_fronts(fronts, capacity), proportion


def update_stagnation(state: TunerState, offspring: list[Individual]) -> None:
    """Store the offspring's best target value and reset the stagnation
    count if it strictly improves on the best so far; otherwise increment it."""
    best = min((ind.raw.f_t for ind in offspring), default=math.inf)
    if best < state.best_f_t:
        state.best_f_t = best
        state.stagnation = 0
    else:
        state.stagnation += 1


def seed_population(
    space: ConfigSpace, oracle: MeasurementOracle, params: TunerParams, rng: random.Random
) -> TunerState:
    """A run's state with a fresh ledger, the measured initial draws as its
    population and no weight.

    Every population-based run starts here, so runs with equal seeds
    start from identical populations.
    """
    if params.budget < params.population_size:
        raise ValueError("budget must cover at least one population of measurements")
    ledger = BudgetLedger(budget=params.budget)
    population = [
        Individual(cfg, measure(oracle, cfg, ledger))
        for cfg in (space.random_config(rng) for _ in range(params.population_size))
    ]
    return TunerState(ledger, population, min(ind.raw.f_t for ind in population))


def generations(space: ConfigSpace, ledger: BudgetLedger, params: TunerParams) -> Iterator[int]:
    """Iteration numbers 1, 2, ... of a population-based run.

    The run stops when the budget is spent, when every configuration of
    the space has been measured, or when ``STALL_ITERATION_CAP``
    iterations in a row charge no new measurement.
    """
    limit = min(params.budget, space.size())
    iteration = 0
    stalled = 0
    while ledger.consumed < limit and stalled < STALL_ITERATION_CAP:
        iteration += 1
        consumed_before = ledger.consumed
        yield iteration
        stalled = stalled + 1 if ledger.consumed == consumed_before else 0


def breed(
    state: TunerState,
    pick_parents: Callable[[list[Individual], random.Random], tuple[Individual, Individual]],
    space: ConfigSpace,
    oracle: MeasurementOracle,
    params: TunerParams,
    rng: random.Random,
) -> list[Individual]:
    """One generation of offspring: pick a parent pair from the run's
    population, cross it over, mutate each child, and measure it unless the
    run's ledger already has it, until a population's worth is admitted."""
    ledger = state.ledger
    offspring: list[Individual] = []
    exhausted = False
    while len(offspring) < params.population_size and not exhausted:
        parent_x, parent_y = pick_parents(state.population, rng)
        children = uniform_crossover(parent_x.config, parent_y.config, CROSSOVER_RATE, rng)
        for child in children:
            child = boundary_mutation(child, MUTATION_RATE, space, rng)
            if ledger.is_cached(child):
                offspring.append(Individual(child, ledger.cache[child]))
            elif ledger.remaining > 0:
                offspring.append(Individual(child, measure(oracle, child, ledger)))
            else:
                # Budget ran out mid-iteration: this child is unmeasurable,
                # so it is dropped and the iteration proceeds with the
                # offspring admitted so far.
                exhausted = True
    return offspring


def finish_run(
    optimizer: str, ledger: BudgetLedger, trajectory: list[IterationRecord]
) -> TuningRun:
    """Package a finished run, read off the ledger's charges: the best is
    the first charged configuration with the least target value, and the
    best-so-far curve has one entry per charged measurement."""
    best_config, best = min(ledger.cache.items(), key=lambda charge: charge[1].f_t)
    return TuningRun(
        optimizer=optimizer,
        best_config=best_config,
        best_f_t=best.f_t,
        best_f_a=best.f_a,
        measurements_used=ledger.consumed,
        trajectory=tuple(trajectory),
        best_by_measurement=tuple(accumulate((s.f_t for s in ledger.cache.values()), min)),
    )


def _set_objectives(union: list[Individual], w: float | None) -> None:
    if w is None:
        for ind in union:
            ind.g1 = ind.f_t_norm
            ind.g2 = ind.f_a_norm
    else:
        compute_meta_union(union, w)


def evolve(
    space: ConfigSpace,
    oracle: MeasurementOracle,
    params: TunerParams,
    seed: int,
    spec: OptimizerSpec = OptimizerSpec("admmo"),
    *,
    union_observer=None,
) -> TuningRun:
    """The shared evolutionary loop behind the tuner, its variants and the
    fixed-weight and plain baselines.

    The adaptive kind starts at ``INITIAL_WEIGHT`` and only moves the
    weight when the trigger fires. ``mmo_fixed`` keeps ``spec.fixed_w``
    throughout, and ``pmo`` searches the plain normalized objectives
    with no weight; both keep every duplicate. The trigger draws come from a dedicated
    stream so that runs differing only in trigger or duplicate handling
    share the same initialization and variation randomness for a given
    seed.
    """
    if spec.kind not in ("admmo", "mmo_fixed", "pmo"):
        raise ValueError(f"{spec.kind} does not run the evolutionary loop")
    adaptive = spec.kind == "admmo"
    duplicates_mode = spec.duplicates_mode if adaptive else DUPLICATES_INDISTINCT
    rng = random.Random(seed)
    trigger_rng = random.Random(f"trigger:{seed}")
    state = seed_population(space, oracle, params, rng)
    if spec.kind != "pmo":
        state.w = INITIAL_WEIGHT if adaptive else spec.fixed_w
    normalize_union(state.population)
    _set_objectives(state.population, state.w)
    # ranks/crowding for the first mating round
    fronts = nondominated_sort(state.population)
    for front in fronts:
        crowding_distance(front)
    state.record(0, Proportion.of_front(fronts[0], state.population).value)
    for iteration in generations(space, state.ledger, params):
        offspring = breed(state, binary_tournament, space, oracle, params, rng)
        update_stagnation(state, offspring)
        union = state.population + offspring
        normalize_union(union)

        if adaptive and (
            spec.trigger_mode == TRIGGER_CONSTANT
            or should_trigger(state.stagnation, state.ledger.consumed, params.budget, trigger_rng)
        ):
            state.w = adapt_weight(union, state.w, params.target_proportion)
        else:
            _set_objectives(union, state.w)

        if union_observer is not None:
            union_observer(iteration, union)

        state.population, proportion = select_survivors(
            union, params.population_size, duplicates_mode
        )
        state.record(iteration, proportion.value)

    return finish_run(spec.label, state.ledger, state.trajectory)


def run_admmo(
    space: ConfigSpace,
    oracle: MeasurementOracle,
    params: TunerParams,
    seed: int,
) -> TuningRun:
    """The adaptive tuner: progressive trigger, weight adaptation, and
    partial duplicate retention on top of the weighted meta-objectives."""
    return evolve(space, oracle, params, seed)
