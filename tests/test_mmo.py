"""Meta-objective model tests: normalization, the weighted transform, dominance."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from admmo import compute_meta, dominates, geometric_transform, normalize_union

from conftest import make_individual, make_meta_individual


class TestNormalizeUnion:
    def test_min_max_over_union(self):
        union = [make_individual(i, f_t=v, f_a=1.0) for i, v in enumerate((2.0, 4.0, 6.0))]
        normalize_union(union)
        assert [ind.f_t_norm for ind in union] == [0.0, 0.5, 1.0]

    def test_zero_range_objective_maps_to_zero(self):
        union = [make_individual(i, f_t=float(i), f_a=3.0) for i in range(4)]
        normalize_union(union)
        assert all(ind.f_a_norm == 0.0 for ind in union)

    def test_single_individual_both_zero(self):
        union = [make_individual(0, f_t=9.0, f_a=-2.0)]
        normalize_union(union)
        assert union[0].f_t_norm == 0.0 and union[0].f_a_norm == 0.0

    def test_raw_values_untouched(self):
        union = [make_individual(i, f_t=v, f_a=-v) for i, v in enumerate((5.0, 1.0))]
        normalize_union(union)
        assert [ind.raw.f_t for ind in union] == [5.0, 1.0]

    def test_span_past_the_largest_float(self):
        # the span of -1e308 and 1e308 overflows; normalizing must not
        union = [
            make_individual(i, f_t=v, f_a=v) for i, v in enumerate((-1e308, 1e308, 0.0))
        ]
        normalize_union(union)
        assert [ind.f_t_norm for ind in union] == [0.0, 1.0, 0.5]
        assert [ind.f_a_norm for ind in union] == [0.0, 1.0, 0.5]
        for ind in union:
            compute_meta(ind, 1.0)
        assert [(ind.g1, ind.g2) for ind in union] == [(0.0, 0.0), (2.0, 0.0), (1.0, 0.0)]

    def test_empty_union_rejected(self):
        with pytest.raises(ValueError):
            normalize_union([])

    def test_idempotent_on_full_range_union(self):
        union = [
            make_individual(i, f_t=v, f_a=a)
            for i, (v, a) in enumerate(((0.0, 1.0), (1.0, 0.0), (0.25, 0.75)))
        ]
        normalize_union(union)
        before = [(ind.f_t_norm, ind.f_a_norm) for ind in union]
        # feeding the normalized values back through changes nothing
        rescaled = [make_individual(i, f_t=t, f_a=a) for i, (t, a) in enumerate(before)]
        normalize_union(rescaled)
        assert [(ind.f_t_norm, ind.f_a_norm) for ind in rescaled] == before


class TestComputeMeta:
    @pytest.mark.parametrize(
        "f_t,f_a,w,expected",
        [
            (0.5, 0.2, 1.0, (0.7, 0.3)),
            (0.5, 0.2, 0.0, (0.5, 0.5)),
            (0.3, 0.4, 0.5, (0.5, 0.1)),
        ],
    )
    def test_hand_values(self, f_t, f_a, w, expected):
        ind = make_individual(0, f_t_norm=f_t, f_a_norm=f_a, w=w)
        assert (ind.g1, ind.g2) == pytest.approx(expected)

    @given(
        f_t=st.floats(0, 1),
        f_a=st.floats(0, 1),
        w=st.floats(0, 1e3),
    )
    def test_meta_sum_identity(self, f_t, f_a, w):
        ind = make_individual(0, f_t_norm=f_t, f_a_norm=f_a, w=w)
        assert ind.g1 + ind.g2 == pytest.approx(2 * f_t, abs=1e-9)


class TestGeometricTransform:
    def test_matches_substitution(self):
        assert geometric_transform(0.2, 0.5, 0.5) == pytest.approx((0.6, 0.4))

    def test_zero_weight_annihilates_auxiliary(self):
        g1, g2 = geometric_transform(0.987, 0.3, 0.0)
        assert g1 == pytest.approx(0.3, abs=1e-12)
        assert g2 == pytest.approx(0.3, abs=1e-12)

    def test_equivalent_to_weighted_sum_form(self):
        rng = random.Random(2024)
        worst = 0.0
        for _ in range(20_000):
            f_t, f_a = rng.random(), rng.random()
            w = rng.random() * 1e3
            ind = make_individual(0, f_t_norm=f_t, f_a_norm=f_a, w=w)
            g1, g2 = geometric_transform(f_a, f_t, w)
            worst = max(worst, abs(g1 - ind.g1), abs(g2 - ind.g2))
        assert worst <= 1e-9


class TestDominates:
    def test_strict_on_both(self):
        a = make_meta_individual(0, 0.1, 0.1)
        b = make_meta_individual(1, 0.2, 0.2)
        assert dominates(a, b) and not dominates(b, a)

    def test_trade_off_incomparable(self):
        a = make_meta_individual(0, 0.1, 0.3)
        b = make_meta_individual(1, 0.3, 0.1)
        assert not dominates(a, b) and not dominates(b, a)

    def test_equal_points_do_not_dominate(self):
        a = make_meta_individual(0, 0.1, 0.3)
        b = make_meta_individual(1, 0.1, 0.3)
        assert not dominates(a, b) and not dominates(b, a)

    def test_weak_dominance_with_one_strict(self):
        a = make_meta_individual(0, 0.1, 0.3)
        b = make_meta_individual(1, 0.1, 0.4)
        assert dominates(a, b)


def random_normalized_union(rng, size):
    union = [
        make_individual(i, f_t_norm=rng.random(), f_a_norm=rng.random(), w=1.0)
        for i in range(size)
    ]
    return union


class TestDegenerations:
    def test_zero_weight_reduces_to_target_only(self):
        rng = random.Random(31)
        for _ in range(50):
            union = random_normalized_union(rng, 12)
            for ind in union:
                compute_meta(ind, 0.0)
            best = min(ind.f_t_norm for ind in union)
            nondominated = [
                ind for ind in union
                if not any(dominates(other, ind) for other in union)
            ]
            assert {ind.f_t_norm for ind in nondominated} == {best}

    def test_large_weight_makes_auxiliary_distinct_pairs_incomparable(self):
        rng = random.Random(32)
        for _ in range(50):
            union = random_normalized_union(rng, 10)
            pairs = [
                (a, b)
                for i, a in enumerate(union)
                for b in union[i + 1 :]
                if a.f_a_norm != b.f_a_norm
            ]
            w_star = max(
                abs(a.f_t_norm - b.f_t_norm) / abs(a.f_a_norm - b.f_a_norm)
                for a, b in pairs
            )
            for ind in union:
                compute_meta(ind, w_star * 1.01 + 1.0)
            for a, b in pairs:
                assert not dominates(a, b) and not dominates(b, a)

    def test_dominance_only_shrinks_as_weight_grows(self):
        rng = random.Random(33)
        for _ in range(30):
            union = random_normalized_union(rng, 8)
            w_lo, w_hi = sorted((rng.random() * 5, rng.random() * 5))
            for a in union:
                for b in union:
                    if a is b or a.f_a_norm == b.f_a_norm:
                        continue
                    for ind in union:
                        compute_meta(ind, w_hi)
                    if dominates(a, b):
                        for ind in union:
                            compute_meta(ind, w_lo)
                        assert dominates(a, b)
