"""bench/mutants.py: a mutant's lines match only whole lines of its file,
exactly once, and a SIGTERM leaves neither its suite nor its copy behind."""

from __future__ import annotations

import importlib
import os
import signal
import subprocess
import sys
import time
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


WAITING_TEST = """\
import os
import time


def test_waits():
    with open(os.environ["MUTANT_SUITE_PID"], "w") as fh:
        fh.write(str(os.getpid()))
    time.sleep(30)
"""

CHILD = """\
import sys
from pathlib import Path

sys.path.insert(0, {bench!r})
import mutants

mutants.ROOT = Path({root!r})
old, new = "            return 1\\n", "            return 2\\n"
mutants.MUTANTS = (mutants.Mutant("m", "f.py", old, new, ""),)
sys.exit(mutants.main(["m"]))
"""


def test_sigterm_kills_the_suite_and_removes_the_copy(tmp_path):
    checkout, tmp, pid_file = tmp_path / "checkout", tmp_path / "tmp", tmp_path / "suite.pid"
    (checkout / "tests").mkdir(parents=True)
    tmp.mkdir()
    (checkout / "f.py").write_text(TEXT)
    (checkout / "tests" / "test_waits.py").write_text(WAITING_TEST)
    env = dict(os.environ, TMPDIR=str(tmp), MUTANT_SUITE_PID=str(pid_file))
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD.format(bench=str(BENCH), root=str(checkout))],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not (pid_file.exists() and pid_file.read_text()):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        assert [p.name[:9] for p in tmp.iterdir()] == ["mutant-m-"]
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        child.kill()
        child.wait()
    assert list(tmp.iterdir()) == []
    with pytest.raises(ProcessLookupError):  # the suite was killed and reaped
        os.kill(int(pid_file.read_text()), 0)
