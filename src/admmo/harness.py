"""Campaign runner and the evaluation metrics computed over repeats.

A campaign executes every optimizer on every case at every budget for a
fixed number of seeded repeats, then summarizes:

* normalized target performance: each run's final best, min-max scaled
  over the whole case pool (all optimizers, budgets, and repeats), then
  averaged per optimizer and budget;
* speedup: how many measurements a counterpart needed to reach its own
  final mean best, divided by how many the reference optimizer needed to
  match that value (None when it never does within budget);
* pairwise rank-sum p-values, effect sizes, and their significance band.

``run_campaign(campaign, jobs=N)`` runs each case on N processes: the
runs are dealt round-robin into N shares, the calling process runs the
first, and a pool of up to N-1 workers the others, one share each.
"""

from __future__ import annotations

import sys
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

from .baselines import run_optimizer
from .cli import run_id
from .runspec import BenchCase, Campaign
from .stats import a12, classify_effect, wilcoxon_rank_sum
from .tuner import TunerParams, TuningRun

SPEEDUP_REFERENCE = "admmo"  # campaign_summary's speedups are against this optimizer


def __getattr__(name: str):
    # The pool class is imported on first use: concurrent.futures.process
    # would cost every process that never starts a pool about 18 ms. It is
    # then kept as a module attribute, which callers may replace.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class CaseResult:
    """All runs of one case, keyed by optimizer label then budget; each
    list is in repeat order, so ``runs[label][budget][rep]`` ran at seed
    ``campaign.seed + rep``."""

    case_id: str
    budgets: tuple[int, ...]
    repeats: int
    runs: dict[str, dict[int, list[TuningRun]]] = field(default_factory=dict)
    error: str | None = None

    def final_bests(self, label: str, budget: int) -> list[float]:
        return [run.best_f_t for run in self.runs[label][budget]]

    @property
    def labels(self) -> list[str]:
        return list(self.runs.keys())


# The case this process is running. Each pool worker receives it once,
# through the pool's initializer, so tasks carry only the run's own settings.
_case: BenchCase | None = None


def _set_case(case: BenchCase | None) -> None:
    global _case
    _case = case


def _one_run(args) -> TuningRun | str:
    """The task's run, or its exception as the text ``"<Type>: <message>"``.
    A worker hands its share back whole or not at all, so a raise would
    hide the share's other runs, and with them which of the case's runs
    failed first. Text, unlike some exceptions, survives the pool's pickle,
    so ``jobs=1`` and ``jobs=N`` report alike."""
    spec, params, seed = args
    try:
        return run_optimizer(spec, _case.space, _case.oracle, params, seed)
    except Exception as exc:  # noqa: BLE001 - run_campaign reports it with the run's id
        return f"{type(exc).__name__}: {exc}"


def _run_share(share: list) -> list:
    """The outcomes of a process's share of a case's tasks, in share order."""
    return [_one_run(task) for task in share]


def run_campaign(campaign: Campaign, jobs: int = 1) -> list[CaseResult]:
    """Execute the campaign's grid of runs; repeat r uses seed campaign.seed + r.

    Identical seeds across optimizers align initial populations. ``jobs``
    processes run each case, this one among them: process w runs every
    ``jobs``-th run from run w, this one being process 0, and a pool of
    the case's own starts one worker for each other process that has a
    run, so a case of one run starts none. Each worker receives the case
    once and a share as one task. A case with a failing run is reported
    with the id and error of its first failing run, its other runs are
    dropped, and the campaign goes on; a case whose pool breaks is
    reported with the pool's error alone, as no run of it is known.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = [
        (spec, TunerParams(int(budget), campaign.population_size, campaign.p), campaign.seed + rep)
        for spec in campaign.optimizers
        for budget in campaign.budgets
        for rep in range(campaign.repeats)
    ]
    # process w runs every jobs-th task from task w; empty shares are
    # dropped, so the pool starts one worker per share beside this one's
    shares = [share for share in (tasks[w::jobs] for w in range(jobs)) if share]
    results = []
    for case in campaign.cases:
        runs = {spec.label: {int(b): [] for b in campaign.budgets} for spec in campaign.optimizers}
        result = CaseResult(case.case_id, campaign.budgets, campaign.repeats, runs)
        results.append(result)
        _set_case(case)
        try:
            with sys.modules[__name__].ProcessPoolExecutor(
                max_workers=len(shares) - 1, initializer=_set_case, initargs=(case,)
            ) if len(shares) > 1 else nullcontext() as pool:
                theirs = pool.map(_run_share, shares[1:]) if pool else ()
                outcomes = [_run_share(shares[0]), *theirs]  # this process's share first
        except Exception as exc:  # noqa: BLE001 - a broken pool fails only its case
            result.error = f"{type(exc).__name__}: {exc}"
            result.runs = {}
            continue
        finally:
            _set_case(None)  # the parent must not keep the last case's table alive
        for i, (spec, run_params, seed) in enumerate(tasks):
            outcome = outcomes[i % jobs][i // jobs]
            if isinstance(outcome, str):  # tasks are filed in order, so this is the first failure
                rid = run_id(case.case_id, spec.label, run_params.budget, seed - campaign.seed)
                result.error = f"run {rid}: {outcome}"
                result.runs = {}
                break
            result.runs[spec.label][run_params.budget].append(outcome)
    return results


def normalized_target_performance(case: CaseResult) -> dict[str, dict[int, float]]:
    """Per-optimizer mean of pool-normalized final bests, per budget.

    The pool spans every run of the case (all optimizers, budgets, and
    repeats), so values are comparable across budgets; 0 marks the best
    final result anyone reached on this case.
    """
    pool: list[float] = []
    for per_budget in case.runs.values():
        for runs in per_budget.values():
            pool.extend(run.best_f_t for run in runs)
    if not pool:
        raise ValueError(f"case {case.case_id} has no runs")
    lo, hi = min(pool), max(pool)
    span = hi - lo
    if span <= 0:
        warnings.warn(
            f"case {case.case_id}: all runs reached the same best; "
            "normalized performance is 0 everywhere",
            stacklevel=2,
        )
    table: dict[str, dict[int, float]] = {}
    for label, per_budget in case.runs.items():
        table[label] = {}
        for budget, runs in per_budget.items():
            values = [(run.best_f_t - lo) / span if span > 0 else 0.0 for run in runs]
            table[label][budget] = sum(values) / len(values)
    return table


def mean_best_curve(runs: Sequence[TuningRun], budget: int) -> list[float]:
    """Mean best-so-far per measurement count, 1..budget.

    Runs that stopped early (space exhausted) carry their final best
    forward; the mean is over all runs at each count.
    """
    curves = []
    for run in runs:
        curve = list(run.best_by_measurement)
        if not curve:
            raise ValueError(f"a run of {run.optimizer} has no measurements")
        if len(curve) < budget:
            curve.extend([curve[-1]] * (budget - len(curve)))
        curves.append(curve[:budget])
    return [sum(c[i] for c in curves) / len(curves) for i in range(budget)]


def speedup(
    counterpart_runs: Sequence[TuningRun],
    reference_runs: Sequence[TuningRun],
    budget: int,
) -> float | None:
    """Measurement-count speedup of the reference over a counterpart.

    Finds the smallest count at which the counterpart's mean best reaches
    its own final value, and the smallest count at which the reference's
    mean best is at least as good; returns their ratio, or None when the
    reference never gets there within the budget ("not achieved").
    """
    counterpart = mean_best_curve(counterpart_runs, budget)
    reference = mean_best_curve(reference_runs, budget)
    final = counterpart[-1]
    b_star = next(i + 1 for i, v in enumerate(counterpart) if v <= final)
    m_star = next((i + 1 for i, v in enumerate(reference) if v <= final), None)
    if m_star is None:
        return None
    return b_star / m_star


def pairwise_comparisons(case: CaseResult) -> list[dict]:
    """Rank-sum p, effect size, and band for every optimizer pair and
    budget, each as the entry ``campaign_summary`` lists."""
    labels = case.labels
    out: list[dict] = []
    for i, la in enumerate(labels):
        for lb in labels[i + 1 :]:
            for budget in case.budgets:
                sa = case.final_bests(la, budget)
                sb = case.final_bests(lb, budget)
                p = wilcoxon_rank_sum(sa, sb)
                effect_size = a12(sa, sb)
                out.append(
                    {
                        "pair": f"{la}__vs__{lb}",
                        "budget": budget,
                        "p_value": p,
                        "a12": effect_size,
                        "effect": classify_effect(effect_size, p),
                    }
                )
    return out


def campaign_summary(results: Sequence[CaseResult]) -> dict:
    """A JSON-ready digest: normalized means, pairwise stats, speedups."""
    summary: dict = {"cases": {}}
    for case in results:
        if case.error is not None:
            summary["cases"][case.case_id] = {"error": case.error}
            continue
        entry: dict = {
            "budgets": list(case.budgets),
            "repeats": case.repeats,
            "optimizers": case.labels,
            "normalized_mean": {
                label: {str(b): v for b, v in per_budget.items()}
                for label, per_budget in normalized_target_performance(case).items()
            },
            "final_best_f_t": {
                label: {
                    str(b): [run.best_f_t for run in runs]
                    for b, runs in per_budget.items()
                }
                for label, per_budget in case.runs.items()
            },
            "comparisons": pairwise_comparisons(case),
        }
        if SPEEDUP_REFERENCE in case.runs:
            top_budget = max(case.budgets)
            reference_runs = case.runs[SPEEDUP_REFERENCE][top_budget]
            entry["speedup_reference"] = SPEEDUP_REFERENCE
            entry["speedup"] = {
                label: speedup(per_budget[top_budget], reference_runs, top_budget)
                for label, per_budget in case.runs.items()
                if label != SPEEDUP_REFERENCE
            }
        summary["cases"][case.case_id] = entry
    return summary
