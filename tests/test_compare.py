"""The claim rule of bench/compare.py (wins per pair, ties, direction and
spread), the perfbench runner it shares with bench/record.py and its
timed ``demo`` and ``tier1`` commands."""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
HIGHER = {"name": "measurements_per_s", "unit": "1/s", "better": "higher"}
LOWER = {"name": "run_ms.p50", "unit": "ms", "better": "lower"}


@pytest.fixture
def compare(monkeypatch):
    # compare.py imports record.py by its bare name, so bench/ goes on
    # sys.path for the import; monkeypatch puts the old list back
    monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])
    return importlib.import_module("compare")


def test_ties_count_for_neither_side(compare):
    row = compare.compare_metric(HIGHER, [1.0, 2.0, 3.0], [1.0, 2.5, 2.0])
    assert (row["wins"], row["losses"]) == (1, 1)


def test_lower_is_better_counts_the_smaller_value_as_a_win(compare):
    row = compare.compare_metric(LOWER, [5.0, 5.0], [4.0, 6.0])
    assert (row["wins"], row["losses"]) == (1, 1)


def test_one_value_is_its_own_median_and_quartiles(compare):
    assert compare.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "values": [3.0]}


def test_claim_needs_nine_of_ten_wins_and_a_gap_beyond_the_base_spread(compare):
    base = [100.0 + i for i in range(10)]
    assert compare.compare_metric(HIGHER, base, [b + 20.0 for b in base])["claim_holds"]
    # nine wins still hold; eight do not
    nine = [b + 20.0 for b in base[:9]] + [base[9]]
    assert compare.compare_metric(HIGHER, base, nine)["claim_holds"]
    eight = [b + 20.0 for b in base[:8]] + base[8:]
    assert not compare.compare_metric(HIGHER, base, eight)["claim_holds"]
    # every pair won, but by less than the base's interquartile range
    assert not compare.compare_metric(HIGHER, base, [b + 1.0 for b in base])["claim_holds"]
    # a gain in the wrong direction is a loss
    assert not compare.compare_metric(LOWER, base, [b + 20.0 for b in base])["claim_holds"]


def test_claim_needs_ten_pairs(compare):
    base = [100.0 + i for i in range(9)]
    assert not compare.compare_metric(HIGHER, base, [b + 50.0 for b in base])["claim_holds"]


def fake_perfbench(root, body):
    """``root`` as a checkout whose ``perfbench/run.py`` is ``body``."""
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(textwrap.dedent(body))
    return root


@pytest.mark.parametrize("stdout", ['{"correct": true, "metrics": {}}\nnot json', ""])
def test_a_missing_or_malformed_last_line_is_an_incorrect_run(compare, tmp_path, stdout):
    root = fake_perfbench(tmp_path, f"print({stdout!r})")
    result = compare.run_perfbench(root, "tune-mix", 1, 1.0, 0)
    assert result == {"correct": False, "metrics": {}}


def test_a_failed_run_keeps_its_stderr_tail(compare, tmp_path):
    root = fake_perfbench(tmp_path, """\
        import sys
        print('{"correct": true, "metrics": {}}')
        print("\\n".join(f"line {i}" for i in range(8)), file=sys.stderr)
        sys.exit(3)
    """)
    result = compare.run_perfbench(root, "tune-mix", 1, 1.0, 0)
    assert result["correct"] is False
    assert result["stderr_tail"] == [f"line {i}" for i in range(3, 8)]


def test_the_raw_line_is_kept(compare, tmp_path):
    root = fake_perfbench(tmp_path, """\
        import sys
        print("raw: measurements_per_s=1.5 slice_ms=0.5", file=sys.stderr)
        print('{"correct": true, "metrics": {}}')
    """)
    result = compare.run_perfbench(root, "tune-mix", 1, 1.0, 1)
    assert result == {"correct": True, "metrics": {}, "raw": "measurements_per_s=1.5 slice_ms=0.5"}


def test_the_callers_pythonpath_does_not_reach_the_run(compare, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(tmp_path / "elsewhere"))
    root = fake_perfbench(tmp_path, """\
        import json, os, sys
        print(json.dumps({"correct": True, "metrics": {}, "argv": sys.argv[1:],
                          "pythonpath": os.environ.get("PYTHONPATH")}))
    """)
    result = compare.run_perfbench(root, "campaign-table", 4, 2.5, 1)
    assert result["pythonpath"] is None
    assert result["argv"] == [
        "--workload", "campaign-table", "--seed", "4", "--seconds", "2.5", "--trace", "1"
    ]


def fake_tree(root, files):
    """``root`` as a checkout holding ``files``, each a path and its body."""
    for name, body in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(textwrap.dedent(body))
    return root


DEMO_MAIN = """\
    import json, os, sys
    assert sys.argv[-2] == "--out" and not os.listdir(sys.argv[-1])
    with open(os.path.join(sys.argv[-1], "summary.json"), "w") as fh:
        json.dump({"argv": sys.argv[1:-2], "pythonpath": os.environ.get("PYTHONPATH")}, fh)
"""


def test_a_demo_run_is_timed_and_keeps_the_digest_of_its_summary(compare, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(tmp_path / "elsewhere"))
    root = fake_tree(tmp_path, {"src/admmo/__init__.py": "", "src/admmo/__main__.py": DEMO_MAIN})
    result = compare.run_command(root, "demo")
    summary = {"argv": ["bench", "demos/data/demo-spec.yaml", "--jobs", "1"], "pythonpath": "src"}
    assert result["correct"] is True
    assert result["summary_sha256"] == hashlib.sha256(json.dumps(summary).encode()).hexdigest()
    assert list(result["metrics"]) == ["wall_s"] and result["metrics"]["wall_s"]["value"] > 0


def test_a_demo_run_that_exits_non_zero_is_incorrect(compare, tmp_path):
    root = fake_tree(tmp_path, {
        "src/admmo/__init__.py": "",
        "src/admmo/__main__.py": "import sys\nsys.exit('error: line 3: not UTF-8 text')\n",
    })
    result = compare.run_command(root, "demo")
    assert result["correct"] is False
    assert result["summary_sha256"] is None
    assert result["stderr_tail"] == ["error: line 3: not UTF-8 text"]


@pytest.mark.parametrize("passes", [True, False])
def test_a_tier1_run_is_correct_when_its_suite_passes(compare, tmp_path, passes):
    root = fake_tree(tmp_path, {"tests/test_one.py": f"def test_one():\n    assert {passes}\n"})
    result = compare.run_command(root, "tier1")
    assert result["correct"] is passes
    assert ("1 passed" if passes else "1 failed") in result["summary"]
    assert "summary_sha256" not in result
