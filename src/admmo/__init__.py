"""Configuration-tuning toolkit built on weighted multi-objectivization.

The tuner recasts single-objective configuration tuning as a pair of
weighted meta-objectives and adapts the weight on the fly so that a
target share of the unique configurations stays nondominated, with a
progressive trigger deciding when to adapt and partial duplicate
retention keeping good duplicates alive in survival selection. The
package also ships the comparison optimizers, pluggable measurement
oracles with strict budget accounting, and a statistical benchmark
harness.
"""

__version__ = "0.1.0"

from .baselines import (
    OptimizerSpec,
    run_ga,
    run_optimizer,
    run_rs,
)
from .harness import (
    BenchCase,
    CaseResult,
    campaign_summary,
    mean_best_curve,
    normalized_target_performance,
    pairwise_comparisons,
    run_campaign,
    speedup,
)
from .mmo import (
    Individual,
    compute_meta,
    compute_meta_union,
    dominates,
    geometric_transform,
    normalize_union,
)
from .nsga2 import (
    binary_tournament,
    boundary_mutation,
    crowding_distance,
    nondominated_sort,
    nsga2_survival,
    uniform_crossover,
)
from .oracles import (
    BudgetExhaustedError,
    BudgetLedger,
    MeasurementTable,
    NkLandscape,
    ObjectiveOrientation,
    PerfSample,
    TableFormatError,
    UnmeasuredConfigurationError,
    load_table,
    measure,
    synthetic_landscape,
)
from .space import (
    ConfigSpace,
    Configuration,
    OptionSpec,
    SpaceTooLargeError,
)
from .stats import a12, classify_effect, wilcoxon_rank_sum
from .tuner import (
    IterationRecord,
    Proportion,
    TunerParams,
    TunerState,
    TuningRun,
    adapt_weight,
    current_proportion,
    partial_duplicate_survival,
    run_admmo,
    select_survivors,
    should_trigger,
    trigger_probability,
    unique_nondominated_proportion,
    update_stagnation,
)
