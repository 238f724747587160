"""Host-speed calibration for wall times measured on a shared host.

On a host shared with other tenants, the same Python work can take
twice as long from one few-second phase to the next, and CPU time swings
with wall time. Every timed operation is therefore bracketed by slices of
a fixed loop owned by the benchmark (never code of the program, so a
faster program cannot speed it up), and its wall time is scaled by
``NOMINAL_SLICE_MS / local slice time``. The result reads as milliseconds
on a host that runs one slice in ``NOMINAL_SLICE_MS``.

Work in this process is scaled by slices timed next to it on the same
thread; work in child processes by the speed of every CPU, sampled while
the children run; setup probes time their own slices.
"""

from __future__ import annotations

import os
import random
import statistics
import time

NOMINAL_SLICE_MS = 0.5
WINDOW = 3  # slices on each side of an operation that set its host speed


def _points() -> list[tuple[float, float]]:
    rng = random.Random(7)
    return [(rng.random(), rng.random()) for _ in range(60)]


_POINTS = _points()


def _loop() -> int:
    """Interpreter-bound work of the kind a tuning run does: pairwise
    dominance tests over tuples of floats, and tuple-keyed dict updates."""
    nondominated = 0
    for a in _POINTS:
        for b in _POINTS:
            if b[0] <= a[0] and b[1] <= a[1] and (b[0] < a[0] or b[1] < a[1]):
                break
        else:
            nondominated += 1
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(1500):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
    return nondominated + len(counts)


def slice_ms() -> float:
    """Wall time of one calibration slice, in ms."""
    start = time.perf_counter()
    _loop()
    return (time.perf_counter() - start) * 1e3


def core_speeds() -> list[float]:
    """Host speed on each CPU this thread may use: ``NOMINAL_SLICE_MS`` over
    one slice pinned to that CPU. The thread's CPU set is restored after.

    For work spread over all CPUs, such as a campaign's process pool. A
    slice after a sleep is scheduled ahead of busy processes on its CPU,
    so it measures the CPU rather than the program's load on it.
    """
    cpus = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            speeds.append(NOMINAL_SLICE_MS / slice_ms())
    finally:
        os.sched_setaffinity(0, cpus)
    return speeds


def slices_ms(count: int) -> list[float]:
    return [slice_ms() for _ in range(count)]


def scale(raw: list[float], slices: list[float]) -> list[float]:
    """Scale each raw time by the host speed around it.

    ``slices[i]`` was timed just before operation i and ``slices[-1]``
    after the last one; operation i uses the median of the WINDOW slices
    before it and the WINDOW after it.
    """
    if len(slices) != len(raw) + 1:
        raise ValueError("need one slice before every operation and one after the last")
    scaled = []
    for i, value in enumerate(raw):
        around = slices[max(0, i + 1 - WINDOW) : i + 1 + WINDOW]
        scaled.append(value * NOMINAL_SLICE_MS / statistics.median(around))
    return scaled


