"""Nonparametric comparison statistics for repeated tuning runs.

* two-sided Wilcoxon rank-sum for unpaired samples: exact conditional
  distribution (midranks, counted by dynamic programming over packed
  integers) for small samples, tie-corrected normal approximation
  otherwise;
* the Vargha-Delaney effect size: the probability that a draw from the
  first sample exceeds one from the second, ties split, which is the
  Mann-Whitney U over n * m, read off the same doubled midranks;
* the conventional effect bands: a comparison counts as significant only
  when the p-value is below 0.05 and the effect size leaves the
  [0.44, 0.56] dead zone, and then classifies as small, medium, or large.
"""

from __future__ import annotations

import math
from typing import Sequence

EXACT_SIZE_LIMIT = 20  # use the exact distribution when n + m <= this

TRIVIAL = "trivial"
SMALL = "small"
MEDIUM = "medium"
LARGE = "large"


def _doubled_midranks(pooled: Sequence[float]) -> tuple[list[int], list[int]]:
    """Twice the 1-based midranks, as integers (tied values share the mean
    of their ranks), and the size of each group of tied values."""
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    doubled = [0] * len(pooled)
    ties: list[int] = []
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        for k in range(i, j + 1):
            doubled[order[k]] = i + j + 2
        ties.append(j + 1 - i)
        i = j + 1
    return doubled, ties


def _exact_rank_sum_p(doubled_ranks: list[int], n: int, observed: int) -> float:
    """Exact two-sided p for the rank sum of a size-n subset.

    ``doubled_ranks`` are the pooled midranks times two (integers), and
    ``observed`` is the doubled rank sum of the first sample. Counts the
    subsets by a subset-sum dynamic program over (size, sum).
    """
    total_sum = sum(doubled_ranks)
    # counts[k] packs the counts of k-subsets by doubled rank sum s into one
    # int, the count for s in the width-bit slot at bit s * width: the sum
    # over s of count * x**s at x = 2**width. Shifting and adding are exact
    # polynomial arithmetic at that x, so a row below n may carry out of its
    # slots harmlessly; only row n is unpacked, and each of its counts is at
    # most comb(N, n) for a pool of N, which its slots hold. The unpacked
    # counts are the integers a list-per-size table would hold, so the
    # floats are the same.
    width = math.comb(len(doubled_ranks), n).bit_length() + 1
    counts = [1] + [0] * n
    for r in doubled_ranks:
        shift = r * width
        for k in range(min(n, len(doubled_ranks)), 0, -1):
            counts[k] += counts[k - 1] << shift
    mask = (1 << width) - 1
    row = [(counts[n] >> (s * width)) & mask for s in range(total_sum + 1)]
    total = sum(row)
    p_le = sum(row[: observed + 1]) / total
    p_ge = sum(row[observed:]) / total
    return min(1.0, 2.0 * min(p_le, p_ge))


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _approx_rank_sum_p(ties: list[int], n: int, m: int, observed: float) -> float:
    """Normal approximation with tie correction and continuity correction;
    ``ties`` are the sizes of the pooled sample's groups of tied values."""
    total = n + m
    mean = n * (total + 1) / 2.0
    tie_term = sum(count**3 - count for count in ties)
    variance = n * m / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if variance <= 0:
        return 1.0
    deviation = abs(observed - mean) - 0.5
    if deviation < 0:
        deviation = 0.0
    z = deviation / math.sqrt(variance)
    return min(1.0, 2.0 * _normal_sf(z))


def wilcoxon_rank_sum(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided rank-sum p-value for two independent samples."""
    if not a or not b:
        raise ValueError("both samples must be nonempty")
    doubled, ties = _doubled_midranks(list(a) + list(b))
    n = len(a)
    observed = sum(doubled[:n])
    if len(doubled) <= EXACT_SIZE_LIMIT:
        return _exact_rank_sum_p(doubled, n, observed)
    return _approx_rank_sum_p(ties, n, len(b), observed / 2)


def a12(a: Sequence[float], b: Sequence[float]) -> float:
    """Probability that a value from ``a`` exceeds one from ``b``, ties split:
    the Mann-Whitney U of ``a``, its rank sum less n(n+1)/2, over n * m."""
    if not a or not b:
        raise ValueError("both samples must be nonempty")
    n = len(a)
    doubled, _ = _doubled_midranks(list(a) + list(b))
    # integers below 2**53: the quotient rounds as the pair count over n * m
    return (sum(doubled[:n]) - n * (n + 1)) / (2 * n * len(b))


def classify_effect(a12_value: float, p_value: float) -> str:
    """Band a comparison by effect size, gated on significance.

    Returns "trivial" unless p < 0.05 and the effect size is at least
    small (>= 0.56 or <= 0.44); otherwise bands by distance from 0.5.
    """
    if p_value >= 0.05:
        return TRIVIAL
    if a12_value >= 0.71 or a12_value <= 0.29:
        return LARGE
    if a12_value >= 0.64 or a12_value <= 0.36:
        return MEDIUM
    if a12_value >= 0.56 or a12_value <= 0.44:
        return SMALL
    return TRIVIAL
