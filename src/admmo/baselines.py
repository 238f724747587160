"""Comparison optimizers and the dispatch of one run.

Random search and the single-objective GA are runners of their own; the
tuner, its ablation variants and the fixed-weight and plain baselines
all run the shared evolutionary loop of ``tuner.evolve``. All optimizers
share the measurement/budget contract and, where population-based, the
same operators and initialization stream, so runs with equal seeds start
from identical populations.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .mmo import Individual
# re-exported: the GA's variation runs through tuner.breed, but callers and
# tracers that look the operators up on this module still find them
from .nsga2 import boundary_mutation, uniform_crossover  # noqa: F401
from .oracles import BudgetLedger, MeasurementOracle, measure
from .space import ConfigSpace
from .tuner import (
    IterationRecord,
    OptimizerSpec,
    TunerParams,
    TuningRun,
    breed,
    evolve,
    finish_run,
    generations,
    seed_population,
    update_stagnation,
)


def run_rs(
    space: ConfigSpace,
    oracle: MeasurementOracle,
    params: TunerParams,
    seed: int,
) -> TuningRun:
    """Random search: uniform draws until the budget (or the space) is spent.

    Duplicate draws cost nothing, so a run charges exactly
    min(budget, |space|) measurements, each one a row of the trajectory.
    """
    if params.budget < 1:
        raise ValueError("random search needs a budget of at least 1")
    rng = random.Random(seed)
    ledger = BudgetLedger(budget=params.budget)
    target = min(params.budget, space.size())
    while ledger.consumed < target:
        measure(oracle, space.random_config(rng), ledger)
    run = finish_run("rs", ledger, [])
    trajectory = (
        IterationRecord(b, b, None, None, None, best)
        for b, best in enumerate(run.best_by_measurement, 1)
    )
    return replace(run, trajectory=tuple(trajectory))


def _raw_target_tournament(
    population: list[Individual], rng: random.Random
) -> tuple[Individual, Individual]:
    """A mating pair; each parent is the better raw target of two uniform
    draws, ties flipping a coin."""
    def pick() -> Individual:
        a = rng.choice(population)
        b = rng.choice(population)
        if a.raw.f_t != b.raw.f_t:
            return a if a.raw.f_t < b.raw.f_t else b
        return a if rng.random() < 0.5 else b

    return pick(), pick()


def run_ga(
    space: ConfigSpace,
    oracle: MeasurementOracle,
    params: TunerParams,
    seed: int,
) -> TuningRun:
    """Single-objective elitist GA on the raw target objective.

    Same crossover/mutation operators, population size and stop rule as
    the tuner; parents win tournaments on the raw target, and survival is
    truncation of parents plus offspring.
    """
    rng = random.Random(seed)
    state = seed_population(space, oracle, params, rng)
    state.record(0, None)
    for iteration in generations(space, state.ledger, params):
        offspring = breed(state, _raw_target_tournament, space, oracle, params, rng)
        update_stagnation(state, offspring)
        merged = sorted(state.population + offspring, key=lambda ind: ind.raw.f_t)
        state.population = merged[: params.population_size]
        state.record(iteration, None)
    return finish_run("ga", state.ledger, state.trajectory)


def run_optimizer(
    spec: OptimizerSpec,
    space: ConfigSpace,
    oracle: MeasurementOracle,
    params: TunerParams,
    seed: int,
) -> TuningRun:
    """Dispatch a single run for any optimizer spec: every kind but random
    search and the GA runs the shared loop of ``tuner.evolve``."""
    if spec.kind == "rs":
        return run_rs(space, oracle, params, seed)
    if spec.kind == "ga":
        return run_ga(space, oracle, params, seed)
    return evolve(space, oracle, params, seed, spec)
