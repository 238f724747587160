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
of a finished run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterator

from .mmo import Individual, compute_meta_union, normalize_union
from .nsga2 import (
    binary_tournament,
    boundary_mutation,
    crowding_distance,
    fill_by_fronts,
    nondominated_sort,
    nsga2_survival,
    uniform_crossover,
)
from .oracles import BudgetLedger, MeasurementOracle, measure
from .space import ConfigSpace, Configuration


@dataclass(frozen=True)
class TunerParams:
    """All knobs of a tuning run; defaults follow the standard setup."""

    budget: int
    population_size: int = 10
    initial_weight: float = 1.0
    trigger_offset: int = 1
    cutoff_probability: float = 0.5
    target_proportion: float = 0.3
    coarse_step: float = 0.1
    fine_step: float = 1e-4
    weight_min: float = 0.0
    weight_max: float = 1e3
    mutation_rate: float = 0.1
    crossover_rate: float = 0.9
    adapt_iteration_cap: int = 10_000
    stall_iteration_cap: int = 1_000

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population size must be at least 2")
        if not 0 < self.target_proportion <= 1:
            raise ValueError("target proportion must lie in (0, 1]")
        if not 0 < self.cutoff_probability < 1:
            raise ValueError("cutoff probability must lie in (0, 1)")
        if self.trigger_offset < 0:
            raise ValueError("trigger offset must be nonnegative")
        if not self.weight_min < self.weight_max:
            raise ValueError("weight bounds must satisfy weight_min < weight_max")
        if self.adapt_iteration_cap < 1 or self.stall_iteration_cap < 1:
            raise ValueError("iteration caps must be positive")
        for name in ("mutation_rate", "crossover_rate"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass
class TunerState:
    """Mutable per-run state: current weight, stagnation, global best."""

    w: float
    stagnation: int = 0
    best: Individual | None = None
    population: list[Individual] = field(default_factory=list)


@dataclass(frozen=True)
class Proportion:
    """Unique-configuration counts behind p' = nondominated / unique."""

    nondominated: int
    unique: int

    @property
    def value(self) -> float:
        return self.nondominated / self.unique


@dataclass(frozen=True)
class IterationRecord:
    """One trajectory row; field names match the emitted table columns."""

    iteration: int
    b: int
    w: float | None
    p_prime: float | None
    o: int | None
    best_f_t_raw: float


@dataclass(frozen=True)
class TuningRun:
    """Everything a finished run reports.

    ``best_by_measurement[i]`` is the best target value after the first
    i+1 charged measurements, so any smaller budget's outcome can be read
    off the same run.
    """

    run_id: str
    optimizer: str
    seed: int
    budget: int
    best_config: Configuration
    best_f_t: float
    best_f_a: float
    measurements_used: int
    trajectory: tuple[IterationRecord, ...]
    best_by_measurement: tuple[float, ...]


def trigger_probability(o: int, offset: int, consumed: int, budget: int, cutoff: float) -> float:
    """Probability of firing weight adaptation.

    Zero while the stagnation count o is within the offset; beyond it the
    probability rises with o and with the consumed share of the budget
    (slope term S = budget / consumed), approaching the cutoff from below
    at o = offset + S^2 excess iterations.
    """
    if consumed < 1 or budget < consumed:
        raise ValueError("need 1 <= consumed <= budget")
    slope = budget / consumed
    return 1.0 - math.exp(math.log(cutoff) * max(0, o - offset) / slope**2)


def should_trigger(
    o: int, offset: int, consumed: int, budget: int, cutoff: float, rng: random.Random
) -> bool:
    """Bernoulli draw against :func:`trigger_probability`.

    A zero probability returns False without consuming randomness.
    """
    prob = trigger_probability(o, offset, consumed, budget, cutoff)
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


def current_proportion(union: list[Individual]) -> Proportion:
    """p' of the union under whatever meta-objectives are currently set."""
    unique, _ = split_duplicates(union)
    fronts = nondominated_sort(unique)
    return Proportion(nondominated=len(fronts[0]), unique=len(unique))


def unique_nondominated_proportion(union: list[Individual], w: float) -> Proportion:
    """Recompute meta-objectives at ``w`` and measure p' = n_d / n_u.

    Duplicates carry identical objective values (they share one cached
    sample), so any representative is equivalent.
    """
    compute_meta_union(union, w)
    return current_proportion(union)


def adapt_weight(union: list[Individual], w: float, target: float, params: TunerParams) -> float:
    """Walk the weight until the unique-nondominated proportion hits ``target``.

    Each step measures p' at the current w and moves w up (p' < target) or
    down (p' > target) by the schedule step: coarse 0.1 once w would land
    at or above 0.1, fine 1e-4 when decreasing below 0.1. Stops on exact
    equality, on hitting a bound, when the comparison sign flips between
    consecutive steps (keeping whichever w was closer, smaller w on ties),
    or at the iteration cap. The union's meta-objectives are left computed
    at the returned weight.
    """
    delta = params.coarse_step
    prev_sign = 0
    prev_w = w
    prev_gap = math.inf
    for _ in range(params.adapt_iteration_cap):
        p_now = unique_nondominated_proportion(union, w).value
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
        if (sign > 0 and w >= params.weight_max) or (sign < 0 and w <= params.weight_min):
            break
        prev_sign, prev_w, prev_gap = sign, w, gap
        if sign > 0:
            if w + delta >= 0.1:
                delta = params.coarse_step
            w = min(w + delta, params.weight_max)
        else:
            if w - delta < 0.1:
                delta = params.fine_step
            w = max(w - delta, params.weight_min)
    compute_meta_union(union, w)
    return w


def partial_duplicate_survival(union: list[Individual], capacity: int) -> list[Individual]:
    """Survival selection with partial duplicate retention.

    Fronts are walked in order; wherever a successor front exists, the
    surplus members of each duplicate group are demoted into it (and may
    cascade further when that front is reached). The demoted fronts are
    then filled as in plain NSGA-II: whole fronts while they fit, the
    first front that does not fit truncated by crowding distance.
    Demotion in fronts the fill never reaches changes nothing.
    Duplicates therefore spread across consecutive fronts, with the
    best-placed copy ranked highest, and the resulting front-0 contains
    exactly the unique nondominated configurations.
    """
    if len(union) < capacity:
        raise ValueError(f"union of {len(union)} cannot fill a population of {capacity}")
    fronts = nondominated_sort(union)
    for i in range(len(fronts)):
        if i + 1 < len(fronts):
            fronts[i], demoted = split_duplicates(fronts[i])
            fronts[i + 1] = fronts[i + 1] + demoted
        for ind in fronts[i]:
            ind.rank = i
    return fill_by_fronts(fronts, capacity)


# objective models and duplicate/trigger modes understood by the engine
MODEL_WEIGHTED = "weighted"
MODEL_PLAIN = "plain"
DUPLICATES_PARTIAL = "partial"
DUPLICATES_INDISTINCT = "indistinct"
DUPLICATES_REMOVE_ALL = "remove_all"
TRIGGER_PROGRESSIVE = "progressive"
TRIGGER_CONSTANT = "constant"
TRIGGER_OFF = "off"


def select_survivors(
    union: list[Individual], capacity: int, duplicates_mode: str
) -> list[Individual]:
    """Survival selection under one of the three duplicate policies:
    partial retention (default), indistinct (plain NSGA-II on the full
    union), or remove_all (one representative per configuration, then
    plain NSGA-II, shrinking the population if too few uniques remain)."""
    if duplicates_mode == DUPLICATES_PARTIAL:
        return partial_duplicate_survival(union, capacity)
    if duplicates_mode == DUPLICATES_REMOVE_ALL:
        unique, _ = split_duplicates(union)
        return nsga2_survival(unique, min(capacity, len(unique)))
    if duplicates_mode == DUPLICATES_INDISTINCT:
        return nsga2_survival(union, capacity)
    raise ValueError(f"unknown duplicates mode {duplicates_mode!r}")


def update_stagnation(state: TunerState, offspring: list[Individual]) -> TunerState:
    """Reset the stagnation count if the offspring strictly improved the
    best target value seen so far; otherwise increment it."""
    improved = None
    for ind in offspring:
        if ind.raw.f_t < state.best.raw.f_t and (
            improved is None or ind.raw.f_t < improved.raw.f_t
        ):
            improved = ind
    if improved is not None:
        state.best = improved
        state.stagnation = 0
    else:
        state.stagnation += 1
    return state


def seed_population(
    space: ConfigSpace, oracle: MeasurementOracle, params: TunerParams, rng: random.Random
) -> tuple[BudgetLedger, TunerState]:
    """A fresh ledger and a state holding the measured initial draws.

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
    state = TunerState(
        w=params.initial_weight,
        best=min(population, key=lambda ind: ind.raw.f_t),
        population=population,
    )
    return ledger, state


def generations(space: ConfigSpace, ledger: BudgetLedger, params: TunerParams) -> Iterator[int]:
    """Iteration numbers 1, 2, ... of a population-based run.

    The run stops when the budget is spent, when every configuration of
    the space has been measured, or when ``stall_iteration_cap``
    iterations in a row charge no new measurement.
    """
    space_size = space.size()
    iteration = 0
    stalled = 0
    while (
        ledger.consumed < params.budget
        and len(ledger.cache) < space_size
        and stalled < params.stall_iteration_cap
    ):
        iteration += 1
        consumed_before = ledger.consumed
        yield iteration
        stalled = stalled + 1 if ledger.consumed == consumed_before else 0


def breed(
    population: list[Individual],
    pick_parents: Callable[[list[Individual], random.Random], tuple[Individual, Individual]],
    space: ConfigSpace,
    oracle: MeasurementOracle,
    ledger: BudgetLedger,
    params: TunerParams,
    rng: random.Random,
) -> list[Individual]:
    """One generation of offspring: pick a parent pair, cross it over,
    mutate each child, and measure it unless the ledger already has it,
    until a population's worth of children is admitted."""
    offspring: list[Individual] = []
    exhausted = False
    while len(offspring) < params.population_size and not exhausted:
        parent_x, parent_y = pick_parents(population, rng)
        children = uniform_crossover(parent_x.config, parent_y.config, params.crossover_rate, rng)
        for child in children:
            child = boundary_mutation(child, params.mutation_rate, space, rng)
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
    run_id: str | None,
    optimizer: str,
    seed: int,
    params: TunerParams,
    best: Individual,
    ledger: BudgetLedger,
    trajectory: list[IterationRecord],
) -> TuningRun:
    """Package a finished run, with the best-so-far curve per charged measurement."""
    return TuningRun(
        run_id=run_id or f"{optimizer}-s{seed}-b{params.budget}",
        optimizer=optimizer,
        seed=seed,
        budget=params.budget,
        best_config=best.config,
        best_f_t=best.raw.f_t,
        best_f_a=best.raw.f_a,
        measurements_used=ledger.consumed,
        trajectory=tuple(trajectory),
        best_by_measurement=tuple(accumulate((s.f_t for _, s in ledger.charge_log), min)),
    )


def _apply_model(union: list[Individual], model: str, w: float) -> None:
    if model == MODEL_PLAIN:
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
    *,
    model: str = MODEL_WEIGHTED,
    duplicates_mode: str = DUPLICATES_PARTIAL,
    trigger_mode: str = TRIGGER_PROGRESSIVE,
    optimizer_label: str = "admmo",
    run_id: str | None = None,
    union_observer=None,
) -> TuningRun:
    """The shared evolutionary loop behind the tuner and its variants.

    The weight starts at ``params.initial_weight`` and only moves when
    the trigger fires. The trigger draws come from a dedicated stream so
    that runs differing only in trigger or duplicate handling share the
    same initialization and variation randomness for a given seed.
    """
    rng = random.Random(seed)
    trigger_rng = random.Random(f"trigger:{seed}")
    ledger, state = seed_population(space, oracle, params, rng)
    normalize_union(state.population)
    _apply_model(state.population, model, state.w)
    trajectory = [_record(0, ledger, state, state.population, model)]
    # ranks/crowding for the first mating round; overwrites _record's scratch sort
    for front in nondominated_sort(state.population):
        crowding_distance(front)
    for iteration in generations(space, ledger, params):
        offspring = breed(state.population, binary_tournament, space, oracle, ledger, params, rng)
        update_stagnation(state, offspring)
        union = state.population + offspring
        normalize_union(union)

        if model == MODEL_WEIGHTED and trigger_mode != TRIGGER_OFF:
            fire = trigger_mode == TRIGGER_CONSTANT or should_trigger(
                state.stagnation,
                params.trigger_offset,
                ledger.consumed,
                params.budget,
                params.cutoff_probability,
                trigger_rng,
            )
        else:
            fire = False
        if fire:
            state.w = adapt_weight(union, state.w, params.target_proportion, params)
        else:
            _apply_model(union, model, state.w)

        if union_observer is not None:
            union_observer(iteration, union)

        # record before survival: survival owns the ranks used for mating
        trajectory.append(_record(iteration, ledger, state, union, model))

        state.population = select_survivors(union, params.population_size, duplicates_mode)

    return finish_run(run_id, optimizer_label, seed, params, state.best, ledger, trajectory)


def _record(
    iteration: int,
    ledger: BudgetLedger,
    state: TunerState,
    union: list[Individual],
    model: str,
) -> IterationRecord:
    if model == MODEL_WEIGHTED:
        proportion = unique_nondominated_proportion(union, state.w).value
        w: float | None = state.w
    else:
        proportion = current_proportion(union).value
        w = None
    return IterationRecord(
        iteration=iteration,
        b=ledger.consumed,
        w=w,
        p_prime=proportion,
        o=state.stagnation,
        best_f_t_raw=state.best.raw.f_t,
    )


def run_admmo(
    space: ConfigSpace,
    oracle: MeasurementOracle,
    params: TunerParams,
    seed: int,
    run_id: str | None = None,
) -> TuningRun:
    """The adaptive tuner: progressive trigger, weight adaptation, and
    partial duplicate retention on top of the weighted meta-objectives."""
    return evolve(space, oracle, params, seed, optimizer_label="admmo", run_id=run_id)
