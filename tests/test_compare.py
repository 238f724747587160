"""The claim rule of bench/compare.py: wins per pair, ties, direction and spread."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
HIGHER = {"name": "measurements_per_s", "unit": "1/s", "better": "higher"}
LOWER = {"name": "run_ms.p50", "unit": "ms", "better": "lower"}


@pytest.fixture
def compare(monkeypatch):
    # bench/record.py puts the repository root on sys.path; undo that too
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
