"""Correctness checks, computed apart from the program.

Each check returns a list of problems; an empty list means the output
passed. The checks use the benchmark's own reference values (brute-force
NK optima, the generated table) and properties every run must have,
never a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

P_VALUE_TOLERANCE = 1e-9
A12_TOLERANCE = 1e-12


def check_curve(
    run_id: str,
    budget: int,
    measurements_used: int,
    curve,
    best_f_t: float,
    f_star: float,
) -> list[str]:
    """Budget contract and shape of the best-so-far curve of one run."""
    problems = []
    if measurements_used > budget:
        problems.append(f"{run_id}: used {measurements_used} measurements of a {budget} budget")
    if len(curve) != measurements_used:
        problems.append(
            f"{run_id}: curve has {len(curve)} points for {measurements_used} measurements"
        )
    if not curve:
        return problems + [f"{run_id}: empty best-so-far curve"]
    rises = [i for i in range(1, len(curve)) if curve[i] > curve[i - 1]]
    if rises:
        problems.append(f"{run_id}: curve rises at measurement {rises[0] + 1}")
    if curve[-1] != best_f_t:
        problems.append(f"{run_id}: curve ends at {curve[-1]!r}, best_f_t is {best_f_t!r}")
    if best_f_t < f_star:
        problems.append(f"{run_id}: best_f_t {best_f_t!r} beats the optimum {f_star!r}")
    return problems


def check_best_value(run_id: str, best_f_t: float, reference: float, oracle_value: float) -> list[str]:
    """The reported best equals its configuration's value, recomputed by the
    benchmark and re-evaluated through the oracle."""
    problems = []
    if best_f_t != reference:
        problems.append(f"{run_id}: best_f_t {best_f_t!r} but its configuration is worth {reference!r}")
    if oracle_value != reference:
        problems.append(f"{run_id}: oracle re-evaluates best config to {oracle_value!r}, not {reference!r}")
    return problems


def check_rs_charges(run_id: str, measurements_used: int, budget: int, space_size: int) -> list[str]:
    expected = min(budget, space_size)
    if measurements_used != expected:
        return [f"{run_id}: random search charged {measurements_used}, expected {expected}"]
    return []


def check_curve_values(run_id: str, curve, allowed) -> list[str]:
    """Every best-so-far value is a value the objective actually takes."""
    stray = [v for v in curve if v not in allowed]
    if stray:
        return [f"{run_id}: curve holds {len(stray)} values the objective never takes, e.g. {stray[0]!r}"]
    return []


def regret(best: float, f_star: float, f_max: float) -> float:
    return (best - f_star) / (f_max - f_star)


def curve_regret_auc(curve, budget: int, f_star: float, f_max: float) -> float:
    """Mean best-so-far regret over measurement counts 1..budget; a run that
    stopped early keeps its last value."""
    padded = list(curve) + [curve[-1]] * (budget - len(curve))
    span = f_max - f_star
    return sum((v - f_star) / span for v in padded[:budget]) / budget


# --- p' along a weight walk -----------------------------------------------


def proportion_at(raw: np.ndarray, configs: list, w: float) -> float:
    """Unique-nondominated proportion of a union at weight ``w``.

    ``raw`` holds (f_t, f_a) per member; min-max normalisation over the
    whole union, then an O(n^2) dominance count over the first member of
    each duplicate group.
    """
    normalized = np.zeros_like(raw)
    for col in range(2):
        lo, hi = raw[:, col].min(), raw[:, col].max()
        if hi - lo > 0:
            normalized[:, col] = (raw[:, col] - lo) / (hi - lo)
    seen = set()
    keep = []
    for i, cfg in enumerate(configs):
        if cfg not in seen:
            seen.add(cfg)
            keep.append(i)
    ft, fa = normalized[keep, 0], normalized[keep, 1]
    g1 = ft + w * fa
    g2 = ft - w * fa
    le = (g1[:, None] <= g1[None, :]) & (g2[:, None] <= g2[None, :])
    lt = (g1[:, None] < g1[None, :]) | (g2[:, None] < g2[None, :])
    dominated = (le & lt).any(axis=0)
    return int((~dominated).sum()) / len(keep)


def check_walk(run_id: str, snapshots: dict, trajectory) -> list[str]:
    """Recompute p' at every recorded weight from the observed unions."""
    problems = []
    checked = 0
    for rec in trajectory:
        if rec.iteration == 0:
            continue
        if rec.iteration not in snapshots:
            problems.append(f"{run_id}: no union observed for iteration {rec.iteration}")
            continue
        raw, configs = snapshots[rec.iteration]
        expected = proportion_at(raw, configs, rec.w)
        if expected != rec.p_prime:
            problems.append(
                f"{run_id}: iteration {rec.iteration} records p'={rec.p_prime!r}, "
                f"recomputed {expected!r} at w={rec.w!r}"
            )
        checked += 1
    if checked == 0:
        problems.append(f"{run_id}: no iteration to check p' on")
    return problems


# --- campaign outputs -----------------------------------------------------


def read_table(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


@lru_cache(maxsize=4)
def _splits(total: int, n: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(total), n)), dtype=np.intp)


def rank_sum_p(a, b) -> float:
    """Two-sided rank-sum p-value, independently of the program.

    Up to 20 pooled values: all C(n+m, n) splits are enumerated and the
    midrank sum of the first sample is compared with each, p being twice
    the smaller tail. Beyond that: scipy's tie-corrected normal
    approximation with continuity correction.
    """
    from scipy import stats as sps

    n, m = len(a), len(b)
    if n + m > 20:
        return float(sps.mannwhitneyu(a, b, method="asymptotic", use_continuity=True).pvalue)
    ranks = sps.rankdata(list(a) + list(b))
    observed = ranks[:n].sum()
    sums = ranks[_splits(n + m, n)].sum(axis=1)
    lower = np.count_nonzero(sums <= observed) / len(sums)
    upper = np.count_nonzero(sums >= observed) / len(sums)
    return min(1.0, 2.0 * min(lower, upper))


def a12_reference(a, b) -> float:
    """Vargha-Delaney A12 from scipy's Mann-Whitney U of the first sample."""
    from scipy import stats as sps

    return float(sps.mannwhitneyu(a, b, method="asymptotic").statistic) / (len(a) * len(b))


def check_summary_stats(summary: dict) -> list[str]:
    """Every pairwise p-value and A12 against the independent computation."""
    problems = []
    for case_id, entry in summary["cases"].items():
        if "error" in entry:
            problems.append(f"{case_id}: case failed: {entry['error']}")
            continue
        bests = entry["final_best_f_t"]
        for comp in entry["comparisons"]:
            la, lb = comp["pair"].split("__vs__")
            a, b = bests[la][str(comp["budget"])], bests[lb][str(comp["budget"])]
            p = rank_sum_p(a, b)
            if not abs(p - comp["p_value"]) <= P_VALUE_TOLERANCE:
                problems.append(
                    f"{case_id} {comp['pair']} b{comp['budget']}: p={comp['p_value']!r}, "
                    f"expected {p!r}"
                )
            effect = a12_reference(a, b)
            if not abs(effect - comp["a12"]) <= A12_TOLERANCE:
                problems.append(
                    f"{case_id} {comp['pair']} b{comp['budget']}: A12={comp['a12']!r}, "
                    f"expected {effect!r}"
                )
    return problems


def check_normalized_means(summary: dict) -> list[str]:
    problems = []
    for case_id, entry in summary["cases"].items():
        if "error" in entry:
            continue
        pool = [v for per_budget in entry["final_best_f_t"].values() for vs in per_budget.values() for v in vs]
        lo, hi = min(pool), max(pool)
        for label, per_budget in entry["final_best_f_t"].items():
            for budget, values in per_budget.items():
                expected = float(np.mean([(v - lo) / (hi - lo) for v in values])) if hi > lo else 0.0
                got = entry["normalized_mean"][label][budget]
                if not math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12):
                    problems.append(f"{case_id} {label} b{budget}: normalized mean {got!r}, expected {expected!r}")
    return problems


def run_ids(summary: dict) -> list[tuple[str, str, int, int, str]]:
    """(case, label, budget, repeat, run_id) of every run the summary lists."""
    out = []
    for case_id, entry in summary["cases"].items():
        if "error" in entry:
            continue
        for label in entry["optimizers"]:
            for budget in entry["budgets"]:
                for rep in range(entry["repeats"]):
                    out.append((case_id, label, budget, rep, f"{case_id}__{label}__b{budget}__r{rep}"))
    return out


def check_campaign(out_dir: Path, table_values: set, f_star: float, space_size: int) -> list[str]:
    """Summary statistics, per-run files and final bests of one campaign."""
    summary_path = out_dir / "summary.json"
    if not summary_path.exists():
        return [f"{out_dir}: no summary.json"]
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    problems = check_summary_stats(summary) + check_normalized_means(summary)
    for case_id, label, budget, rep, run_id in run_ids(summary):
        final = summary["cases"][case_id]["final_best_f_t"][label][str(budget)][rep]
        trajectory = out_dir / "trajectories" / f"{run_id}.csv"
        convergence = out_dir / "convergence" / f"{run_id}.csv"
        missing = [p.name for p in (trajectory, convergence) if not p.exists()]
        if missing:
            problems.append(f"{run_id}: missing {', '.join(missing)}")
            continue
        curve = [float(row["best_f_t_raw"]) for row in read_table(convergence)]
        problems += check_curve(run_id, budget, len(curve), curve, final, f_star)
        problems += check_curve_values(run_id, curve, table_values)
        if label == "rs":
            problems += check_rs_charges(run_id, len(curve), budget, space_size)
        steps = read_table(trajectory)
        if not steps or float(steps[-1]["best_f_t_raw"]) != final:
            problems.append(f"{run_id}: trajectory does not end at the final best {final!r}")
    return problems


def check_report(report_dir: Path, summary: dict) -> list[str]:
    """The report's tables agree with the summary it was rendered from."""
    problems = []
    performance = report_dir / "performance.csv"
    if not performance.exists():
        return [f"{report_dir}: no performance.csv"]
    rows = read_table(performance)
    for case_id, entry in summary["cases"].items():
        if "error" in entry:
            continue
        for label, means in entry["normalized_mean"].items():
            match = [r for r in rows if r["case"] == case_id and r["optimizer"] == label]
            if len(match) != 1:
                problems.append(f"performance.csv: {len(match)} rows for {case_id}/{label}")
                continue
            for budget, value in means.items():
                cell = match[0][f"S{budget}"].rstrip("*")
                if cell != f"{value:.4f}":
                    problems.append(f"performance.csv {case_id}/{label} S{budget}: {cell} vs {value:.4f}")
    weighted = {
        run_id
        for _, label, _, _, run_id in run_ids(summary)
        if label.startswith("admmo") or label == "mmo_fixed"
    }
    series = report_dir / "weight_series.csv"
    seen = {row["run_id"] for row in read_table(series)} if series.exists() else set()
    if seen != weighted:
        problems.append(
            f"weight_series.csv: {len(seen - weighted)} runs not in the summary, "
            f"{len(weighted - seen)} weighted runs missing"
        )
    return problems
