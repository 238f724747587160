"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts and
the emitted statistics tables.
"""

import os
import random
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from admmo import (
    BudgetExhaustedError,
    BudgetLedger,
    ConfigSpace,
    MeasurementTable,
    OptimizerSpec,
    OptionSpec,
    PerfSample,
    TunerParams,
    a12,
    classify_effect,
    compute_meta_union,
    dominates,
    geometric_transform,
    measure,
    nondominated_sort,
    run_admmo,
    run_optimizer,
    run_rs,
    select_survivors,
    synthetic_landscape,
    trigger_probability,
    unique_nondominated_proportion,
    wilcoxon_rank_sum,
)
from conftest import make_individual, names_of

LANDSCAPE_SEEDS = (101, 202, 303, 404, 505)
REPEATS = 30
RUN_SEED_BASE = 1000


def report(line: str) -> None:
    print(line, flush=True)


def test_criterion_01_weighted_sum_equals_geometric_form():
    rng = random.Random(20240601)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100_000):
        f_t, f_a = rng.random(), rng.random()
        w = rng.random() * 1e3
        g1 = f_t + w * f_a
        g2 = f_t - w * f_a
        h1, h2 = geometric_transform(f_a, f_t, w)
        worst = max(worst, abs(g1 - h1), abs(g2 - h2))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert elapsed < 1.0
    report(f"[PASS] criterion 1: max |weighted-sum - geometric| = {worst:.3e} "
           f"over 1e5 triples in {elapsed:.2f}s")


def test_criterion_02_trigger_probability_reference_values():
    for o in (0, 1):
        assert trigger_probability(o, 50, 400) == 0.0
    v8 = trigger_probability(5, 50, 400)
    v4 = trigger_probability(5, 100, 400)
    assert v8 == pytest.approx(0.042397, abs=1e-4)
    assert v4 == pytest.approx(0.159104, abs=1e-4)
    report(f"[PASS] criterion 2: trigger = 0 while o <= offset, "
           f"{v8:.6f} at slope 8, {v4:.6f} at slope 4")


def test_criterion_03_duplicate_retention_worked_example(worked_survival_union):
    union = worked_survival_union
    outcomes = {}
    for mode, expected in (
        ("partial", {"x1", "x2", "x3", "x6"}),
        ("remove_all", {"x1", "x2", "x5", "x6"}),
        ("indistinct", {"x1", "x2", "x3", "x4"}),
    ):
        compute_meta_union(union, 1.0)
        got = names_of(union, select_survivors(list(union), 4, mode)[0])
        assert got == expected, f"{mode}: {sorted(got)} != {sorted(expected)}"
        outcomes[mode] = sorted(got)
    report(f"[PASS] criterion 3: survival outcomes {outcomes}")


def _random_populations(count: int, rng: np.random.Generator):
    for _ in range(count):
        size = int(rng.integers(4, 51))
        yield rng.uniform(size=size), rng.uniform(size=size)


def _nondominated_masks(ft: np.ndarray, fa: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Vectorized oracle: nondominated mask per weight, independent of the
    package's dominance code."""
    g1 = ft[None, :] + weights[:, None] * fa[None, :]
    g2 = ft[None, :] - weights[:, None] * fa[None, :]
    le1 = g1[:, :, None] <= g1[:, None, :]
    le2 = g2[:, :, None] <= g2[:, None, :]
    lt = (g1[:, :, None] < g1[:, None, :]) | (g2[:, :, None] < g2[:, None, :])
    dominates_matrix = le1 & le2 & lt  # [w, i, j]: i dominates j
    return ~dominates_matrix.any(axis=1)  # [w, j]


def test_criterion_04_proportion_monotone_in_weight():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    weights = np.append(0.01 + 0.02 * np.arange(500), 10.0)
    checked = 0
    cross_checked = 0
    for ft, fa in _random_populations(1000, rng):
        masks = _nondominated_masks(ft, fa, weights)
        proportions = masks.mean(axis=1)
        assert (np.diff(proportions) >= 0).all()
        assert (~masks[:-1] | masks[1:]).all(), "nondominated set shrank as w grew"
        if checked < 5:
            # tie the oracle to the production path on a subsample
            union = [
                make_individual(i, f_t_norm=float(t), f_a_norm=float(a))
                for i, (t, a) in enumerate(zip(ft, fa))
            ]
            for wi in range(0, len(weights), 100):
                prop = unique_nondominated_proportion(union, float(weights[wi]))
                assert prop.value == pytest.approx(float(proportions[wi]))
                cross_checked += 1
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(f"[PASS] criterion 4: p'(w) nondecreasing and sets nested on "
           f"{checked} populations x {len(weights)} weights "
           f"({cross_checked} production cross-checks) in {elapsed:.1f}s")


def test_criterion_05_degenerations_at_extreme_weights():
    rng = np.random.default_rng(78)
    for ft, fa in _random_populations(1000, rng):
        zero_mask = _nondominated_masks(ft, fa, np.array([0.0]))[0]
        assert (zero_mask == (ft == ft.min())).all()
        diff_fa = fa[:, None] != fa[None, :]
        gaps = np.abs(ft[:, None] - ft[None, :])
        spreads = np.abs(fa[:, None] - fa[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(diff_fa, gaps / spreads, 0.0)
        w_star = float(ratios.max())
        big = np.array([w_star * 1.000001 + 1e-9])
        g1 = ft + big[0] * fa
        g2 = ft - big[0] * fa
        dominated_pairs = (
            (g1[:, None] <= g1[None, :])
            & (g2[:, None] <= g2[None, :])
            & ((g1[:, None] < g1[None, :]) | (g2[:, None] < g2[None, :]))
        )
        assert not (dominated_pairs & diff_fa).any(), "an fa-distinct pair stayed comparable"
    report("[PASS] criterion 5: w=0 reduces to argmin f_t; w > W* makes every "
           "fa-distinct pair incomparable on 1000 populations")


def test_criterion_06_sorting_matches_brute_force():
    rng = random.Random(79)
    for _ in range(1000):
        pop = []
        for i in range(rng.randint(1, 12)):
            ind = make_individual(i, f_t_norm=rng.random(), f_a_norm=rng.random(), w=1.0)
            pop.append(ind)
        fast = nondominated_sort(list(pop))
        remaining = list(pop)
        reference = []
        while remaining:
            front = [
                ind for ind in remaining
                if not any(dominates(o, ind) for o in remaining if o is not ind)
            ]
            reference.append(front)
            remaining = [ind for ind in remaining if ind not in front]
        assert [set(map(id, f)) for f in fast] == [set(map(id, f)) for f in reference]
    report("[PASS] criterion 6: fast sort equals brute-force partition on 1000 populations")


def test_criterion_07_statistics_oracles():
    assert wilcoxon_rank_sum([1, 2, 3], [4, 5, 6]) == pytest.approx(0.1, abs=0)
    assert a12([1, 2, 3], [4, 5, 6]) == 0.0
    assert a12([1, 2, 3], [1, 2, 3]) == 0.5
    assert a12([2], [1]) == 1.0
    assert classify_effect(0.60, 0.01) == "small"
    assert classify_effect(0.80, 0.20) == "trivial"
    assert classify_effect(0.25, 0.001) == "large"
    report("[PASS] criterion 7: rank-sum p = 0.1, effect sizes 0/0.5/1, bands "
           "small/trivial/large as stated")


def _sixteen_point_table():
    space = ConfigSpace(tuple(OptionSpec.binary(f"b{i}") for i in range(4)))
    rows = {
        cfg: PerfSample(float(i), float(15 - i)) for i, cfg in enumerate(space.enumerate_all())
    }
    return space, MeasurementTable(space=space, rows=rows)


def test_criterion_08_budget_contract():
    started = time.perf_counter()
    space, table = _sixteen_point_table()
    configs = space.enumerate_all()
    rng = random.Random(80)
    for budget in (1, 3, 7, 16, 50):
        ledger = BudgetLedger(budget=budget)
        requested = set()
        for _ in range(10_000):
            cfg = configs[rng.randrange(len(configs))]
            requested.add(cfg)
            try:
                measure(table, cfg, ledger)
            except BudgetExhaustedError:
                assert ledger.consumed == budget
                assert cfg not in ledger.cache
            assert ledger.consumed == min(budget, len(requested))
        assert ledger.consumed == min(budget, 16)
        assert len(ledger.cache) == ledger.consumed
    oracle = synthetic_landscape(n_options=12, domain_sizes=2, k=4, seed=81)
    for seed, budget in ((0, 50), (1, 113), (2, 200)):
        run = run_admmo(oracle.space, oracle, TunerParams(budget=budget), seed=seed)
        assert run.measurements_used <= budget
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(f"[PASS] criterion 8: adversarial sequences charge min(B, distinct); "
           f"tuner runs never exceed B ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def comparative_runs():
    """All runs for the scaled experiments: per landscape, the three
    optimizers at p=0.3 plus the tuner at p=0.05 and p=1.0."""
    base = TunerParams(budget=200)
    results = {}
    timings = {}
    started = time.perf_counter()
    for ls in LANDSCAPE_SEEDS:
        oracle = synthetic_landscape(n_options=12, domain_sizes=2, k=4, seed=ls)
        results[ls, "admmo"] = [
            run_admmo(oracle.space, oracle, base, seed=RUN_SEED_BASE + r).best_f_t
            for r in range(REPEATS)
        ]
        results[ls, "rs"] = [
            run_rs(oracle.space, oracle, base, seed=RUN_SEED_BASE + r).best_f_t
            for r in range(REPEATS)
        ]
        results[ls, "pmo"] = [
            run_optimizer(
                OptimizerSpec("pmo"), oracle.space, oracle, base, seed=RUN_SEED_BASE + r
            ).best_f_t
            for r in range(REPEATS)
        ]
    timings["comparative"] = time.perf_counter() - started
    started = time.perf_counter()
    for ls in LANDSCAPE_SEEDS:
        oracle = synthetic_landscape(n_options=12, domain_sizes=2, k=4, seed=ls)
        for p in (0.05, 1.0):
            params = replace(base, target_proportion=p)
            results[ls, p] = [
                run_admmo(oracle.space, oracle, params, seed=RUN_SEED_BASE + r).best_f_t
                for r in range(REPEATS)
            ]
    timings["sensitivity"] = time.perf_counter() - started
    return results, timings


def test_criterion_09_outperforms_baselines_at_desk_scale(comparative_runs):
    results, timings = comparative_runs
    wins = {"rs": 0, "pmo": 0}
    report("criterion 9 statistics (30 repeats, budget 200, population 10, p=0.3):")
    for ls in LANDSCAPE_SEEDS:
        ours = results[ls, "admmo"]
        line = [f"  landscape {ls}: mean(admmo)={statistics.mean(ours):.5f}"]
        for rival in ("rs", "pmo"):
            theirs = results[ls, rival]
            p_value = wilcoxon_rank_sum(ours, theirs)
            effect = a12(ours, theirs)
            band = classify_effect(effect, p_value)
            better = statistics.mean(ours) <= statistics.mean(theirs)
            wins[rival] += better
            line.append(
                f"vs {rival}: mean={statistics.mean(theirs):.5f} "
                f"p={p_value:.4f} A12={effect:.3f} [{band}]"
            )
        report(" | ".join(line))
    assert wins["rs"] >= 4, f"beat rs on only {wins['rs']}/5 landscapes"
    assert wins["pmo"] >= 4, f"beat pmo on only {wins['pmo']}/5 landscapes"
    assert timings["comparative"] < 300.0
    report(f"[PASS] criterion 9: mean best <= rs on {wins['rs']}/5 and <= pmo on "
           f"{wins['pmo']}/5 landscapes in {timings['comparative']:.0f}s")


def test_criterion_10_target_proportion_sensitivity(comparative_runs):
    results, timings = comparative_runs
    mid_beats_large = 0
    never_worse_than_small = 0
    report("criterion 10 statistics (p = 0.05 / 0.3 / 1.0):")
    for ls in LANDSCAPE_SEEDS:
        mid = results[ls, "admmo"]
        small_p = results[ls, 0.05]
        large_p = results[ls, 1.0]
        means = {
            0.05: statistics.mean(small_p),
            0.3: statistics.mean(mid),
            1.0: statistics.mean(large_p),
        }
        mid_beats_large += means[0.3] <= means[1.0]
        # "no worse" against the small setting uses the significance gate:
        # a deviation below the small-effect band is trivial by protocol
        p_value = wilcoxon_rank_sum(mid, small_p)
        effect = a12(mid, small_p)
        band = classify_effect(effect, p_value)
        significantly_worse = band != "trivial" and effect > 0.5
        never_worse_than_small += not significantly_worse
        report(
            f"  landscape {ls}: means={{0.05: {means[0.05]:.5f}, 0.3: {means[0.3]:.5f}, "
            f"1.0: {means[1.0]:.5f}}} vs-small p={p_value:.4f} A12={effect:.3f} [{band}]"
        )
    assert mid_beats_large >= 3, f"p=0.3 beat p=1.0 on only {mid_beats_large}/5"
    assert never_worse_than_small >= 3, (
        f"p=0.3 significantly worse than p=0.05 on {5 - never_worse_than_small}/5"
    )
    assert timings["sensitivity"] < 900.0
    report(
        f"[PASS] criterion 10: p=0.3 no worse than p=1.0 on {mid_beats_large}/5 "
        f"(plain means) and never significantly worse than p=0.05 on "
        f"{never_worse_than_small}/5 in {timings['sensitivity']:.0f}s"
    )


DATASET_ENV = "ADMMO_DATASET_DIR"


@pytest.mark.skipif(
    DATASET_ENV not in os.environ,
    reason=f"set {DATASET_ENV} to a directory with mongodb-runtime.yaml to enable",
)
def test_criterion_11_published_dataset_ordering():
    """With real measurement datasets supplied, the adaptive tuner must
    order below the fixed-weight baseline on MongoDB runtime at the top
    budget (cell values themselves are interpretation-dependent)."""
    from admmo.cli import main

    dataset_dir = Path(os.environ[DATASET_ENV])
    spec = dataset_dir / "mongodb-runtime.yaml"
    assert spec.exists(), f"expected {spec}"
    out = dataset_dir / "acceptance-campaign"
    code = main(["bench", str(spec), "--repeats", "50", "--budget", "400",
                 "--out", str(out), "--force"])
    assert code == 0
    import json

    summary = json.loads((out / "summary.json").read_text())
    case = next(iter(summary["cases"].values()))
    admmo_mean = case["normalized_mean"]["admmo"]["400"]
    fixed_mean = case["normalized_mean"]["mmo_fixed"]["400"]
    assert admmo_mean < fixed_mean
    report(f"[PASS] criterion 11: adaptive {admmo_mean:.4f} < fixed-weight "
           f"{fixed_mean:.4f} at budget 400")
