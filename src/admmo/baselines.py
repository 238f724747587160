"""Random search and the dispatch of one run.

Random search is the one runner of its own, since its trajectory has a
row per charge; the tuner, its ablation variants, the fixed-weight and
plain baselines and the single-objective GA all run the one generation
loop of ``tuner.evolve``. All optimizers share the measurement/budget
contract and, where population-based, the same operators and
initialization stream, so runs with equal seeds start from identical
populations.
"""

from __future__ import annotations

import random
from dataclasses import replace

# re-exported: variation runs through tuner.breed, but callers and tracers
# that look the operators up on this module still find them
from .nsga2 import boundary_mutation, uniform_crossover  # noqa: F401
from .oracles import BudgetLedger, MeasurementOracle, measure
from .space import ConfigSpace
from .tuner import IterationRecord, OptimizerSpec, TunerParams, TuningRun, evolve, finish_run


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


def run_optimizer(
    spec: OptimizerSpec,
    space: ConfigSpace,
    oracle: MeasurementOracle,
    params: TunerParams,
    seed: int,
) -> TuningRun:
    """Dispatch a single run for any optimizer spec: every kind but random
    search runs the one generation loop of ``tuner.evolve``."""
    if spec.kind == "rs":
        return run_rs(space, oracle, params, seed)
    return evolve(space, oracle, params, seed, spec)
