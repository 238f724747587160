"""
A desk-scale benchmark campaign with statistics
===============================================

Runs several optimizers on two synthetic landscapes over a small budget
ladder with repeats, then computes the evaluation metrics: normalized
target performance per budget, pairwise rank-sum significance with
effect sizes, and measurement-count speedups.

The command-line equivalent is:  admmo bench demos/data/demo-spec.yaml
"""

from admmo import (
    BenchCase,
    OptimizerSpec,
    TunerParams,
    campaign_summary,
    normalized_target_performance,
    pairwise_comparisons,
    run_campaign,
    speedup,
    synthetic_landscape,
)

cases = []
for seed in (101, 202):
    oracle = synthetic_landscape(n_options=12, domain_sizes=2, k=4, seed=seed)
    cases.append(BenchCase(f"landscape-{seed}", oracle.space, oracle))

optimizers = [
    OptimizerSpec("admmo"),
    OptimizerSpec("mmo_fixed", fixed_w=1.0),
    OptimizerSpec("rs"),
]
budgets = (100, 200)
repeats = 10

results = run_campaign(
    cases, optimizers, budgets=budgets, repeats=repeats, base_seed=500,
    params=TunerParams(budget=max(budgets)),
)

# %% Normalized target performance: every run's final best, min-max
# scaled over the whole case pool (all optimizers, budgets, repeats).
# 0.0 marks the best final value anyone reached on that case.

for case in results:
    print(f"\n=== {case.case_id} (mean normalized performance, smaller is better)")
    table = normalized_target_performance(case)
    header = "".join(f"  S{b:<6}" for b in budgets)
    print(f"{'optimizer':12s}{header}")
    for label, per_budget in table.items():
        cells = "".join(f"  {per_budget[b]:.4f} " for b in budgets)
        print(f"{label:12s}{cells}")

# %% Pairwise statistics at each budget: two-sided rank-sum p-value and
# the probability-of-superiority effect size with its band.

    print("\npair                      budget   p-value   A12    band")
    for c in pairwise_comparisons(case):
        print(f"{c['pair']:24s}  {c['budget']:4d}   "
              f"{c['p_value']:.4f}  {c['a12']:.3f}  {c['effect']}")

# %% Speedup: measurements a counterpart needed to reach its own final
# mean best, over the measurements the adaptive tuner needed to match
# it. None means the tuner never got there within the budget.

    top = max(budgets)
    reference = case.runs["admmo"][top]
    for label in ("mmo_fixed", "rs"):
        s = speedup(case.runs[label][top], reference, top)
        shown = f"{s:.2f}x" if s is not None else "not achieved"
        print(f"speedup vs {label}: {shown}")

# %% The same digest the bench command writes as summary.json:

summary = campaign_summary(results)
print(f"\nsummary covers cases: {sorted(summary['cases'])}")
