"""The whole-line rule of bench/mutants.py: a mutant's lines match only
whole lines of its file, exactly once."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TEXT = "def f(kind):\n    if kind:\n        if kind != 'x':\n            return 1\n"


@pytest.fixture
def mutants(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])
    module = importlib.import_module("mutants")
    monkeypatch.setattr(module, "ROOT", tmp_path)
    (tmp_path / "f.py").write_text(TEXT)
    return module


def test_a_whole_line_is_replaced(mutants):
    m = mutants.Mutant("m", "f.py", "        if kind != 'x':\n", "        if True:\n", "")
    assert mutants.mutated(m) == TEXT.replace("if kind != 'x'", "if True")


def test_the_first_line_counts_as_whole(mutants):
    m = mutants.Mutant("m", "f.py", "def f(kind):\n", "def f(kind=None):\n", "")
    assert mutants.mutated(m).startswith("def f(kind=None):\n    if kind:\n")


def test_the_tail_of_a_longer_line_does_not_match(mutants):
    m = mutants.Mutant("m", "f.py", "    if kind != 'x':\n", "    if True:\n", "")
    with pytest.raises(LookupError, match="whole lines"):
        mutants.mutated(m)

