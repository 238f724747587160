"""Statistics tests: rank-sum p-values, effect sizes, significance bands."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmo import a12, classify_effect, wilcoxon_rank_sum
from admmo.stats import EXACT_SIZE_LIMIT, _approx_rank_sum_p, _doubled_midranks, _exact_rank_sum_p


# sample values with repeats and both zeros, or any finite float
SAMPLE_VALUES = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0]) | st.floats(allow_nan=False)


def enumeration_rank_sum_p(a, b):
    """Independent oracle: enumerate every assignment of pooled midranks."""
    pooled = list(a) + list(b)
    ranks, _ = _doubled_midranks(pooled)
    n = len(a)
    observed = sum(ranks[:n])
    sums = [sum(ranks[i] for i in combo) for combo in itertools.combinations(range(len(pooled)), n)]
    p_le = sum(s <= observed for s in sums) / len(sums)
    p_ge = sum(s >= observed for s in sums) / len(sums)
    return min(1.0, 2.0 * min(p_le, p_ge))


def list_rank_sum_p(doubled_ranks, n, observed):
    """Reference: the (size, sum) dynamic program with one list per size."""
    total_sum = sum(doubled_ranks)
    counts = [[0] * (total_sum + 1) for _ in range(n + 1)]
    counts[0][0] = 1
    for r in doubled_ranks:
        for k in range(min(n, len(doubled_ranks)), 0, -1):
            row_prev, row = counts[k - 1], counts[k]
            for s in range(total_sum - r, -1, -1):
                if row_prev[s]:
                    row[s + r] += row_prev[s]
    total = sum(counts[n])
    p_le = sum(counts[n][: observed + 1]) / total
    p_ge = sum(counts[n][observed:]) / total
    return min(1.0, 2.0 * min(p_le, p_ge))


def exact_arguments(a, b):
    """What ``wilcoxon_rank_sum`` hands ``_exact_rank_sum_p`` for a and b."""
    doubled, _ = _doubled_midranks(list(a) + list(b))
    return doubled, len(a), sum(doubled[: len(a)])


class TestWilcoxon:
    def test_disjoint_triples_exact_tenth(self):
        assert wilcoxon_rank_sum([1, 2, 3], [4, 5, 6]) == pytest.approx(0.1, abs=0)

    def test_identical_samples_give_one(self):
        assert wilcoxon_rank_sum([1, 2, 3], [1, 2, 3]) == 1.0

    def test_symmetry(self):
        a, b = [1.0, 5.0, 2.5], [2.0, 7.0, 0.5, 3.0]
        assert wilcoxon_rank_sum(a, b) == pytest.approx(wilcoxon_rank_sum(b, a))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_rank_sum([], [1.0])

    def test_exact_matches_enumeration_oracle(self):
        rng = random.Random(42)
        for _ in range(30):
            n, m = rng.randint(2, 5), rng.randint(2, 5)
            # draws from a small lattice so ties occur regularly
            a = [rng.randint(0, 4) / 2 for _ in range(n)]
            b = [rng.randint(0, 4) / 2 for _ in range(m)]
            assert wilcoxon_rank_sum(a, b) == pytest.approx(
                enumeration_rank_sum_p(a, b), abs=1e-12
            )

    @pytest.mark.parametrize("n,m", [(18, 2), (2, 18), (15, 5), (10, 10)])
    @pytest.mark.parametrize("shift", [0, 2])
    def test_exact_matches_enumeration_on_full_pools(self, n, m, shift):
        # n + m is the exact path's limit; a shift makes the first sample
        # lopsided, so the observed sum sits in a tail
        rng = random.Random(n * 100 + m * 10 + shift)
        a = [rng.randint(shift, 4 + shift) / 2 for _ in range(n)]
        b = [rng.randint(0, 4) / 2 for _ in range(m)]
        assert len(set(a + b)) < n + m  # the pool has ties
        assert wilcoxon_rank_sum(a, b) == pytest.approx(
            enumeration_rank_sum_p(a, b), abs=1e-12
        )

    def test_packed_counts_match_the_list_dp_bit_for_bit(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 19)
            m = rng.randint(1, 20 - n)
            lattice = rng.choice([2, 6, 1000])  # heavy ties to almost none
            a = [rng.randint(0, lattice) for _ in range(n)]
            b = [rng.randint(0, lattice) for _ in range(m)]
            args = exact_arguments(a, b)
            assert _exact_rank_sum_p(*args) == list_rank_sum_p(*args)

    def test_exact_and_approximate_agree_for_mid_sizes(self):
        rng = random.Random(7)
        for _ in range(100):
            a = [rng.gauss(0, 1) for _ in range(10)]
            b = [rng.gauss(rng.uniform(-1, 1), 1) for _ in range(10)]
            doubled, ties = _doubled_midranks(a + b)
            observed = sum(doubled[:10])
            exact = _exact_rank_sum_p(doubled, 10, observed)
            approx = _approx_rank_sum_p(ties, 10, 10, observed / 2)
            assert abs(exact - approx) < 0.02

    def test_null_rejection_rate_is_calibrated(self):
        rng = random.Random(11)
        repetitions = 1000
        rejections = sum(
            wilcoxon_rank_sum(
                [rng.random() for _ in range(50)], [rng.random() for _ in range(50)]
            )
            < 0.05
            for _ in range(repetitions)
        )
        assert abs(rejections / repetitions - 0.05) < 0.02

    def test_strong_separation_is_significant_at_scale(self):
        a = [float(i) for i in range(30)]
        b = [float(i) + 25.0 for i in range(30)]
        assert wilcoxon_rank_sum(a, b) < 1e-6


class TestA12:
    def test_hand_cases(self):
        assert a12([1, 2, 3], [4, 5, 6]) == 0.0
        assert a12([1, 2, 3], [1, 2, 3]) == 0.5
        assert a12([2], [1]) == 1.0

    def test_ties_split(self):
        assert a12([1, 1], [1, 1]) == 0.5

    @given(
        a=st.lists(st.integers(0, 5), min_size=1, max_size=8),
        b=st.lists(st.integers(0, 5), min_size=1, max_size=8),
    )
    @settings(max_examples=100)
    def test_complementarity(self, a, b):
        assert a12(a, b) + a12(b, a) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            a12([], [1])

    @given(
        a=st.lists(SAMPLE_VALUES, min_size=1, max_size=EXACT_SIZE_LIMIT),
        b=st.lists(SAMPLE_VALUES, min_size=1, max_size=EXACT_SIZE_LIMIT),
    )
    @settings(max_examples=300)
    def test_is_the_pair_count_with_ties_split(self, a, b):
        # the definition, counted pair by pair; a12 reads it off the midranks
        greater = 0.0
        for x in a:
            for y in b:
                greater += 1.0 if x > y else 0.5 if x == y else 0.0
        assert a12(a, b) == greater / (len(a) * len(b))


class TestClassifyEffect:
    def test_reference_classifications(self):
        assert classify_effect(0.60, 0.01) == "small"
        assert classify_effect(0.80, 0.20) == "trivial"
        assert classify_effect(0.25, 0.001) == "large"

    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.56, "small"),
            (0.44, "small"),
            (0.64, "medium"),
            (0.36, "medium"),
            (0.71, "large"),
            (0.29, "large"),
            (0.639, "small"),
            (0.709, "medium"),
            (0.50, "trivial"),
            (0.55, "trivial"),
            (0.45, "trivial"),
        ],
    )
    def test_band_edges(self, value, expected):
        assert classify_effect(value, 0.01) == expected

    def test_insignificant_p_always_trivial(self):
        for value in (0.0, 0.3, 0.6, 1.0):
            assert classify_effect(value, 0.05) == "trivial"
