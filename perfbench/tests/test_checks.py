"""Each check accepts the program's real output and rejects a corrupted copy."""

import json
import random
import shutil

import numpy as np
import pytest

from admmo import cli, stats, synthetic_landscape, tuner
from admmo.mmo import Individual, normalize_union
from admmo.oracles import PerfSample
from admmo.space import Configuration
from admmo.tuner import TunerParams
from perfbench import checks, inputs


def test_check_curve_accepts_a_falling_curve():
    assert checks.check_curve("r", 4, 3, [5.0, 4.0, 4.0], 4.0, 1.0) == []


@pytest.mark.parametrize(
    "used, curve, best, problem",
    [
        (3, [5.0, 4.0, 4.5], 4.5, "rises"),
        (3, [5.0, 4.0, 3.0], 4.0, "ends at"),
        (5, [5.0, 4.0, 3.0, 3.0, 3.0], 3.0, "budget"),
        (4, [5.0, 4.0, 3.0], 3.0, "points for"),
        (3, [5.0, 4.0, 0.5], 0.5, "beats the optimum"),
    ],
)
def test_check_curve_rejects_corruption(used, curve, best, problem):
    problems = checks.check_curve("r", 4, used, curve, best, 1.0)
    assert any(problem in p for p in problems), problems


def test_value_and_charge_checks_reject_mismatches():
    assert checks.check_best_value("r", 1.0, 1.0, 1.0) == []
    assert checks.check_best_value("r", 1.0, 1.5, 1.5)
    assert checks.check_best_value("r", 1.0, 1.0, 1.25)
    assert checks.check_rs_charges("r", 200, 200, 4096) == []
    assert checks.check_rs_charges("r", 199, 200, 4096)
    assert checks.check_rs_charges("r", 16, 200, 16) == []
    assert checks.check_curve_values("r", [2.0, 1.0], {1.0, 2.0, 3.0}) == []
    assert checks.check_curve_values("r", [2.0, 1.5], {1.0, 2.0, 3.0})


def test_regret_measures():
    assert checks.regret(2.0, 1.0, 5.0) == 0.25
    # a run that stopped after 2 of 4 measurements keeps its last value
    assert checks.curve_regret_auc([5.0, 3.0], 4, 1.0, 5.0) == pytest.approx((1 + 0.5 * 3) / 4)


def test_proportion_matches_the_program_on_random_unions():
    rng = random.Random(3)
    for _ in range(50):
        union = []
        for _ in range(rng.randint(2, 20)):
            cfg = Configuration((rng.randrange(4), rng.randrange(4)))
            union.append(Individual(cfg, PerfSample(rng.random(), rng.random())))
        normalize_union(union)
        w = rng.choice([0.0, 1e-4, 0.1, 1.0, 7.3])
        raw = np.array([(ind.raw.f_t, ind.raw.f_a) for ind in union])
        expected = tuner.unique_nondominated_proportion(union, w).value
        assert checks.proportion_at(raw, [ind.config for ind in union], w) == expected


@pytest.fixture(scope="module")
def observed_walk():
    oracle = synthetic_landscape(12, 2, 4, seed=5)
    snapshots = {}

    def observe(iteration, union):
        raw = np.array([(ind.raw.f_t, ind.raw.f_a) for ind in union])
        snapshots[iteration] = (raw, [ind.config for ind in union])

    run = tuner.evolve(
        oracle.space, oracle, TunerParams(budget=60, target_proportion=0.05), 2, union_observer=observe
    )
    return snapshots, run.trajectory


def test_check_walk_accepts_the_recorded_p_prime(observed_walk):
    snapshots, trajectory = observed_walk
    assert checks.check_walk("r", snapshots, trajectory) == []


def test_check_walk_rejects_a_wrong_p_prime(observed_walk):
    snapshots, trajectory = observed_walk
    rec = trajectory[3]
    bad = list(trajectory)
    bad[3] = type(rec)(rec.iteration, rec.b, rec.w, rec.p_prime + 0.05, rec.o, rec.best_f_t_raw)
    assert checks.check_walk("r", snapshots, bad)
    missing = dict(snapshots)
    del missing[rec.iteration]
    assert checks.check_walk("r", missing, trajectory)


@pytest.mark.parametrize("n, m", [(10, 10), (5, 7), (15, 15)])
def test_rank_sum_reference_agrees_with_the_program(n, m):
    rng = random.Random(n * 100 + m)
    for _ in range(5):
        a = [round(rng.random(), 1) for _ in range(n)]
        b = [round(rng.random() + 0.2, 1) for _ in range(m)]
        assert checks.rank_sum_p(a, b) == pytest.approx(stats.wilcoxon_rank_sum(a, b), abs=1e-12)
        assert checks.a12_reference(a, b) == pytest.approx(stats.a12(a, b), abs=1e-12)


# --- campaign outputs -----------------------------------------------------


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """A small table campaign written through the CLI, and its table."""
    root = tmp_path_factory.mktemp("campaign")
    table = inputs.generate_table(4)
    (spec,) = inputs.write_campaign_inputs(root / "inputs", table, 4, repeats=4, budgets=(20, 30))
    out = root / "out"
    assert cli.main(["bench", str(spec), "--out", str(out)]) == 0
    assert cli.main(["report", str(out)]) == 0
    return out, table


def _copy(campaign, tmp_path):
    out, table = campaign
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    return copy, table


def _check(out, table):
    values = {rt for rt, _ in table.rows.values()}
    return checks.check_campaign(out, values, table.f_star, table.space_size)


def test_campaign_checks_accept_the_real_output(campaign):
    out, table = campaign
    assert _check(out, table) == []
    summary = json.loads((out / "summary.json").read_text())
    assert checks.check_report(out / "report", summary) == []


def test_campaign_check_rejects_a_p_value_off_by_1e_3(campaign, tmp_path):
    out, table = _copy(campaign, tmp_path)
    summary = json.loads((out / "summary.json").read_text())
    summary["cases"]["gen-table"]["comparisons"][0]["p_value"] += 1e-3
    (out / "summary.json").write_text(json.dumps(summary))
    assert any("p=" in p for p in _check(out, table))


def test_campaign_check_rejects_a_wrong_a12(campaign, tmp_path):
    out, table = _copy(campaign, tmp_path)
    summary = json.loads((out / "summary.json").read_text())
    summary["cases"]["gen-table"]["comparisons"][-1]["a12"] += 1e-6
    (out / "summary.json").write_text(json.dumps(summary))
    assert any("A12" in p for p in _check(out, table))


def test_campaign_check_rejects_a_missing_run_file(campaign, tmp_path):
    out, table = _copy(campaign, tmp_path)
    next((out / "convergence").glob("*__rs__*.csv")).unlink()
    assert any("missing" in p for p in _check(out, table))


def test_campaign_check_rejects_a_rising_convergence_curve(campaign, tmp_path):
    out, table = _copy(campaign, tmp_path)
    path = next((out / "convergence").glob("*__ga__b30__r0.csv"))
    lines = path.read_text().splitlines()
    run_id, measurement, _ = lines[-2].split(",")
    lines[-2] = f"{run_id},{measurement},{table.f_max}"
    path.write_text("\n".join(lines) + "\n")
    assert any("rises" in p for p in _check(out, table))


def test_campaign_check_rejects_a_best_outside_the_table(campaign):
    out, table = campaign
    summary = json.loads((out / "summary.json").read_text())
    best = summary["cases"]["gen-table"]["final_best_f_t"]["rs"]["20"][0]
    values = {rt for rt, _ in table.rows.values()} - {best}
    problems = checks.check_campaign(out, values, table.f_star, table.space_size)
    assert any("never takes" in p for p in problems)


def test_report_check_rejects_stale_weight_series(campaign, tmp_path):
    out, table = _copy(campaign, tmp_path)
    summary = json.loads((out / "summary.json").read_text())
    series = out / "report" / "weight_series.csv"
    series.write_text(series.read_text() + "gen-table__admmo_r__b20__r0,1,1.0,0.3\n")
    assert any("not in the summary" in p for p in checks.check_report(out / "report", summary))


def test_report_check_rejects_a_wrong_performance_cell(campaign, tmp_path):
    out, table = _copy(campaign, tmp_path)
    summary = json.loads((out / "summary.json").read_text())
    summary["cases"]["gen-table"]["normalized_mean"]["pmo"]["20"] += 0.01
    assert any("performance.csv" in p for p in checks.check_report(out / "report", summary))
