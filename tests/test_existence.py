"""Existence/obstruction rules: hand-checked oracles, priority, exclusion."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from selink import (
    BPExponents,
    DomainError,
    WeightedLink,
    bp_klt_window,
    bp_to_link,
    crude_klt,
    decide_existence,
    ghigi_kollar,
    lichnerowicz_obstruction,
)
from conftest import bp_exponents, coprime_triples, run_python


class TestLichnerowicz:
    def test_index_family_example(self):
        # I = 8 > 4 * 1.
        assert lichnerowicz_obstruction(WeightedLink((1, 2, 5, 5, 5), 10))

    def test_table_family_example(self):
        # (1,l,l,l), d=2l at l=5: I = 6 > 3.
        assert lichnerowicz_obstruction(WeightedLink((1, 5, 5, 5), 10))

    def test_small_index_does_not_fire(self):
        assert not lichnerowicz_obstruction(WeightedLink((1, 1, 1, 1), 3))

    def test_boundary_is_not_an_obstruction(self):
        # I = 3 = 3 * 1 exactly: strict inequality, must not fire.
        link = WeightedLink((1, 9, 7, 14), 28)
        assert link.index == 3 and link.n * min(link.weights) == 3
        assert not lichnerowicz_obstruction(link)


class TestCrudeKlt:
    def test_famously_weak_on_fermat_cubic(self):
        # I*d = 3 vs (3/2)*1.
        assert not crude_klt(WeightedLink((1, 1, 1, 1), 3))

    def test_fires_near_null(self):
        # I = 1, I*d = 29 < 2 * 90.
        assert crude_klt(WeightedLink((9, 10, 11), 29))

    def test_random_instance_against_inline_evaluation(self):
        link = WeightedLink((11, 13, 17, 41), 43)
        lhs = link.index * link.degree
        rhs = Fraction(link.n, link.n - 1) * min(
            a * b for a, b in combinations(link.weights, 2)
        )
        assert crude_klt(link) == (lhs < rhs)
        assert not crude_klt(link)  # 39 * 43 is far above (3/2) * 143


def window_upper_oracle(exponents) -> Fraction:
    """Independent recomputation of the window's upper endpoint."""
    n = len(exponents) - 1
    b = []
    for j, aj in enumerate(exponents):
        others = [a for i, a in enumerate(exponents) if i != j]
        b.append(math.gcd(aj, math.lcm(*others)))
    cands = [Fraction(1, a) for a in exponents]
    cands += [Fraction(1, x * y) for x, y in combinations(b, 2)]
    return 1 + Fraction(n, n - 1) * min(cands)


class TestBPWindow:
    def test_all_twos_fails(self):
        # Sum 5/2 against upper bound 4/3.
        assert not bp_klt_window(BPExponents((2, 2, 2, 2, 2)))

    def test_mixed_example_fires(self):
        # a=(2,3,7,35): sum = 211/210, b = (1,1,7,7), upper = 101/98.
        bp = BPExponents((2, 3, 7, 35))
        assert bp.reciprocal_sum() == Fraction(211, 210)
        assert window_upper_oracle(bp.exponents) == Fraction(101, 98)
        assert bp_klt_window(bp)

    def test_null_boundary_fails(self):
        assert not bp_klt_window(BPExponents((4, 4, 4, 4)))

    @given(bp_exponents(max_len=5, max_exponent=12))
    @settings(max_examples=100, deadline=None)
    def test_against_oracle(self, bp):
        total = sum(Fraction(1, a) for a in bp.exponents)
        expected = 1 < total < window_upper_oracle(bp.exponents)
        assert bp_klt_window(bp) == expected


class TestGhigiKollar:
    def test_five_primes_exists(self):
        bp = BPExponents((2, 3, 5, 7, 11))
        assert bp.reciprocal_sum() == Fraction(2927, 2310)
        assert ghigi_kollar(bp) == "exists"

    def test_sylvester_style_tuple(self):
        bp = BPExponents((2, 3, 7, 43, 139))
        total = bp.reciprocal_sum()
        assert 1 < total < 1 + Fraction(4, 139)
        assert ghigi_kollar(bp) == "exists"

    def test_not_applicable_without_coprimality(self):
        assert ghigi_kollar(BPExponents((2, 4, 5))) == "not_applicable"

    def test_poincare_sphere(self):
        assert ghigi_kollar(BPExponents((2, 3, 5))) == "exists"

    def test_upper_failure(self):
        # (2,3,5,61): sum = 1921/1830 exceeds 1 + 3/61 = 1920/1830.
        assert ghigi_kollar(BPExponents((2, 3, 5, 61))) == "not_exists"


class TestDecideExistence:
    def test_negative_link(self):
        verdict = decide_existence(WeightedLink((1, 1, 1), 5))
        assert verdict.link_type == "negative"
        assert verdict.status == "eta_einstein_exists"
        assert verdict.rule is None and verdict.margin is None

    def test_null_link(self):
        verdict = decide_existence(WeightedLink((1, 1, 1, 1), 4))
        assert verdict.link_type == "null"
        assert verdict.status == "eta_einstein_exists"

    def test_gk_exists_with_margin(self):
        bp = BPExponents((2, 3, 5))
        verdict = decide_existence(bp_to_link(bp), bp)
        assert (verdict.status, verdict.rule) == ("se_exists", "ghigi_kollar")
        assert verdict.margin == Fraction(1, 30)

    def test_gk_not_exists_is_obstruction(self):
        bp = BPExponents((2, 3, 5, 61))
        verdict = decide_existence(bp_to_link(bp), bp)
        assert (verdict.status, verdict.rule) == ("obstructed", "ghigi_kollar")
        assert verdict.margin == Fraction(1, 1830)

    def test_gk_exists_close_call(self):
        bp = BPExponents((2, 3, 5, 59))
        verdict = decide_existence(bp_to_link(bp), bp)
        assert (verdict.status, verdict.rule) == ("se_exists", "ghigi_kollar")
        assert verdict.margin == Fraction(1, 1770)

    def test_lichnerowicz_priority_over_sufficiency(self):
        verdict = decide_existence(WeightedLink((1, 2, 5, 5, 5), 10))
        assert (verdict.status, verdict.rule) == ("obstructed", "lichnerowicz")
        assert verdict.margin == 4  # I - n*min(w) = 8 - 4

    def test_window_rule_for_bp_presentations(self):
        bp = BPExponents((2, 3, 7, 35))
        verdict = decide_existence(bp_to_link(bp), bp)
        assert (verdict.status, verdict.rule) == ("se_exists", "bp_klt_window")
        total = Fraction(211, 210)
        assert verdict.margin == min(total - 1, Fraction(101, 98) - total)

    def test_crude_rule_without_bp_data(self):
        # Same link as bp=(2,3,5) but presented by weights only: the BP
        # rules are unavailable and the crude bound decides.
        verdict = decide_existence(WeightedLink((15, 10, 6), 30))
        assert (verdict.status, verdict.rule) == ("se_exists", "crude_klt")
        assert verdict.margin == Fraction(2, 1) * 60 - 30  # 90

    def test_unknown_when_nothing_fires(self):
        verdict = decide_existence(bp_to_link(BPExponents((2, 2, 2))), BPExponents((2, 2, 2)))
        assert (verdict.status, verdict.rule) == ("unknown", None)

    def test_mismatched_bp_rejected(self):
        with pytest.raises(DomainError, match="^bp=2,3,5 does not present w=1,1,1 d=2$"):
            decide_existence(WeightedLink((1, 1, 1), 2), BPExponents((2, 3, 5)))
        # The same weights in another order are another presentation.
        with pytest.raises(DomainError, match="does not present w=10,15,6 d=30"):
            decide_existence(WeightedLink((10, 15, 6), 30), BPExponents((2, 3, 5)))

    def test_bp_presents_its_own_link(self):
        bp = BPExponents((2, 3, 5))
        assert decide_existence(bp.link, bp).status == "se_exists"
        # An equal link built apart from bp is accepted too.
        assert decide_existence(WeightedLink((15, 10, 6), 30), bp) == decide_existence(bp.link, bp)

    def test_checks_survive_optimize_flag(self):
        code = """
from selink import *
try:
    decide_existence(WeightedLink((1, 1, 1), 2), BPExponents((2, 3, 5)))
except DomainError:
    print("domain")
try:
    ExistenceVerdict("negative", "se_exists", "ghigi_kollar")
except InternalConsistencyError:
    print("internal")
"""
        result = run_python(code, "-O")
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["domain", "internal"]


class TestInvariants:
    @given(bp_exponents(max_len=5, max_exponent=14))
    @settings(max_examples=200, deadline=None)
    def test_obstruction_and_sufficiency_mutually_exclusive(self, bp):
        link = bp_to_link(bp)
        if link.index <= 0:
            return
        fired_obstruction = lichnerowicz_obstruction(link)
        fired_sufficiency = crude_klt(link) or bp_klt_window(bp)
        assert not (fired_obstruction and fired_sufficiency)

    @given(coprime_triples())
    @settings(max_examples=150, deadline=None)
    def test_window_inside_sharp_interval(self, triple):
        # Whenever the klt window fires on coprime data, the sharp test
        # must agree that a metric exists.
        bp = BPExponents(triple)
        if bp_klt_window(bp):
            assert ghigi_kollar(bp) == "exists"

    @given(bp_exponents(max_len=5, max_exponent=12))
    @settings(max_examples=150, deadline=None)
    def test_margins_are_exact_and_positive(self, bp):
        verdict = decide_existence(bp_to_link(bp), bp)
        if verdict.margin is not None:
            assert isinstance(verdict.margin, (int, Fraction))
            assert verdict.margin >= 0

    @given(bp_exponents())
    @settings(max_examples=100, deadline=None)
    def test_status_vocabulary(self, bp):
        verdict = decide_existence(bp_to_link(bp), bp)
        assert verdict.status in ("se_exists", "obstructed", "unknown", "eta_einstein_exists")
        if verdict.link_type != "positive":
            assert verdict.status == "eta_einstein_exists"
