"""Configuration-tuning toolkit built on weighted multi-objectivization.

The tuner recasts single-objective configuration tuning as a pair of
weighted meta-objectives and adapts the weight on the fly so that a
target share of the unique configurations stays nondominated, with a
progressive trigger deciding when to adapt and partial duplicate
retention keeping good duplicates alive in survival selection. The
package also ships the comparison optimizers, pluggable measurement
oracles with strict budget accounting, and a statistical benchmark
harness.

``import admmo`` loads no submodule: each public name is imported from
its submodule on first access (PEP 562), so a command pays only for the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "baselines": ("run_ga", "run_optimizer", "run_rs"),
    "harness": (
        "BenchCase",
        "CaseResult",
        "campaign_summary",
        "mean_best_curve",
        "normalized_target_performance",
        "pairwise_comparisons",
        "run_campaign",
        "speedup",
    ),
    "mmo": (
        "Individual",
        "compute_meta",
        "compute_meta_union",
        "dominates",
        "geometric_transform",
        "normalize_union",
    ),
    "nsga2": (
        "binary_tournament",
        "boundary_mutation",
        "crowding_distance",
        "nondominated_sort",
        "nsga2_survival",
        "uniform_crossover",
    ),
    "oracles": (
        "BudgetExhaustedError",
        "BudgetLedger",
        "MeasurementTable",
        "NkLandscape",
        "ObjectiveOrientation",
        "PerfSample",
        "TableFormatError",
        "UnmeasuredConfigurationError",
        "load_table",
        "measure",
        "synthetic_landscape",
    ),
    "space": ("ConfigSpace", "Configuration", "OptionSpec", "SpaceTooLargeError"),
    "stats": ("a12", "classify_effect", "wilcoxon_rank_sum"),
    "tuner": (
        "IterationRecord",
        "OptimizerSpec",
        "Proportion",
        "TunerParams",
        "TunerState",
        "TuningRun",
        "adapt_weight",
        "current_proportion",
        "partial_duplicate_survival",
        "run_admmo",
        "select_survivors",
        "should_trigger",
        "trigger_probability",
        "unique_nondominated_proportion",
        "update_stagnation",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
