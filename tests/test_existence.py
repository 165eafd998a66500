"""Existence/obstruction rules: hand-checked oracles, priority, exclusion."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selink import (
    BPExponents,
    DomainError,
    WeightedLink,
    casson_invariant,
    decide_existence,
    enumerate_bp,
)
from selink.existence import (
    _bp_klt_slack,
    _crude_klt_slack,
    _ghigi_kollar_slack,
    _lichnerowicz_slack,
)
from conftest import bp_exponents, coprime_triples, reciprocal_sum, run_python


# Each slack is an integer numerator over a positive denominator: its
# value is Fraction(*pair) and its sign is the numerator's.


class TestLichnerowicz:
    def test_index_family_example(self):
        # I = 8 > 4 * 1.
        assert Fraction(*_lichnerowicz_slack(WeightedLink((1, 2, 5, 5, 5), 10))) == 4

    def test_table_family_example(self):
        # (1,l,l,l), d=2l at l=5: I = 6 > 3.
        assert Fraction(*_lichnerowicz_slack(WeightedLink((1, 5, 5, 5), 10))) == 3

    def test_small_index_does_not_fire(self):
        assert _lichnerowicz_slack(WeightedLink((1, 1, 1, 1), 3))[0] < 0

    def test_boundary_is_not_an_obstruction(self):
        # I = 3 = 3 * 1 exactly: strict inequality, must not fire.
        link = WeightedLink((1, 9, 7, 14), 28)
        assert link.index == 3 and link.n * min(link.weights) == 3
        assert _lichnerowicz_slack(link)[0] == 0


class TestCrudeKlt:
    def test_famously_weak_on_fermat_cubic(self):
        # I*d = 3 vs (3/2)*1.
        assert _crude_klt_slack(WeightedLink((1, 1, 1, 1), 3))[0] < 0

    def test_fires_near_null(self):
        # I = 1, I*d = 29 < 2 * 90.
        assert _crude_klt_slack(WeightedLink((9, 10, 11), 29))[0] > 0

    def test_random_instance_against_inline_evaluation(self):
        link = WeightedLink((11, 13, 17, 41), 43)
        lhs = link.index * link.degree
        rhs = Fraction(link.n, link.n - 1) * min(
            a * b for a, b in combinations(link.weights, 2)
        )
        assert Fraction(*_crude_klt_slack(link)) == rhs - lhs
        assert _crude_klt_slack(link)[0] < 0  # 39 * 43 is far above (3/2) * 143


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
        assert _bp_klt_slack(BPExponents((2, 2, 2, 2, 2)))[0] < 0

    def test_mixed_example_fires(self):
        # a=(2,3,7,35): sum = 211/210, b = (1,1,7,7), upper = 101/98.
        bp = BPExponents((2, 3, 7, 35))
        assert reciprocal_sum(bp) == Fraction(211, 210)
        assert window_upper_oracle(bp.exponents) == Fraction(101, 98)
        assert Fraction(*_bp_klt_slack(bp)) == Fraction(1, 210)

    def test_null_boundary_fails(self):
        # Sum 1: the lower end of the window holds with equality.
        assert _bp_klt_slack(BPExponents((4, 4, 4, 4)))[0] == 0

    @given(bp_exponents(max_len=5, max_exponent=12))
    @settings(max_examples=100, deadline=None)
    def test_against_oracle(self, bp):
        total = sum(Fraction(1, a) for a in bp.exponents)
        expected = 1 < total < window_upper_oracle(bp.exponents)
        assert (_bp_klt_slack(bp)[0] > 0) == expected


class TestGhigiKollar:
    def test_five_primes_exists(self):
        bp = BPExponents((2, 3, 5, 7, 11))
        assert reciprocal_sum(bp) == Fraction(2927, 2310)
        assert bp.pairwise_coprime() and _ghigi_kollar_slack(bp)[0] > 0

    def test_sylvester_style_tuple(self):
        bp = BPExponents((2, 3, 7, 43, 139))
        total = reciprocal_sum(bp)
        assert 1 < total < 1 + Fraction(4, 139)
        assert bp.pairwise_coprime() and _ghigi_kollar_slack(bp)[0] > 0

    def test_not_applicable_without_coprimality(self):
        # A tuple that is not pairwise coprime is never decided by the sharp
        # test, even where its window would hold: (2,2,2) has slack 1/2.
        for exponents in ((2, 4, 5), (2, 2, 2), (2, 3, 4, 5)):
            bp = BPExponents(exponents)
            assert not bp.pairwise_coprime()
            assert decide_existence(bp.link, bp).rule != "ghigi_kollar"
        assert Fraction(*_ghigi_kollar_slack(BPExponents((2, 2, 2)))) == Fraction(1, 2)

    def test_poincare_sphere(self):
        assert Fraction(*_ghigi_kollar_slack(BPExponents((2, 3, 5)))) == Fraction(1, 30)

    def test_upper_failure(self):
        # (2,3,5,61): sum = 1921/1830 exceeds 1 + 3/61 = 1920/1830.
        slack = _ghigi_kollar_slack(BPExponents((2, 3, 5, 61)))
        assert Fraction(*slack) == Fraction(-1, 1830)


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
        verdict = decide_existence(bp.link, bp)
        assert (verdict.status, verdict.rule) == ("se_exists", "ghigi_kollar")
        assert verdict.margin == Fraction(1, 30)

    def test_gk_not_exists_is_obstruction(self):
        bp = BPExponents((2, 3, 5, 61))
        verdict = decide_existence(bp.link, bp)
        assert (verdict.status, verdict.rule) == ("obstructed", "ghigi_kollar")
        assert verdict.margin == Fraction(1, 1830)

    def test_gk_exists_close_call(self):
        bp = BPExponents((2, 3, 5, 59))
        verdict = decide_existence(bp.link, bp)
        assert (verdict.status, verdict.rule) == ("se_exists", "ghigi_kollar")
        assert verdict.margin == Fraction(1, 1770)

    def test_lichnerowicz_priority_over_sufficiency(self):
        verdict = decide_existence(WeightedLink((1, 2, 5, 5, 5), 10))
        assert (verdict.status, verdict.rule) == ("obstructed", "lichnerowicz")
        assert verdict.margin == 4  # I - n*min(w) = 8 - 4

    def test_window_rule_for_bp_presentations(self):
        bp = BPExponents((2, 3, 7, 35))
        verdict = decide_existence(bp.link, bp)
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
        verdict = decide_existence(BPExponents((2, 2, 2)).link, BPExponents((2, 2, 2)))
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
        link = bp.link
        if link.index <= 0:
            return
        fired_obstruction = _lichnerowicz_slack(link)[0] > 0
        fired_sufficiency = _crude_klt_slack(link)[0] > 0 or _bp_klt_slack(bp)[0] > 0
        assert not (fired_obstruction and fired_sufficiency)

    @given(coprime_triples())
    @settings(max_examples=150, deadline=None)
    def test_window_inside_sharp_interval(self, triple):
        # Whenever the klt window fires on coprime data, the sharp test
        # must agree that a metric exists.
        bp = BPExponents(triple)
        if _bp_klt_slack(bp)[0] > 0:
            assert _ghigi_kollar_slack(bp)[0] > 0

    @given(bp_exponents(max_len=5, max_exponent=12))
    @settings(max_examples=150, deadline=None)
    def test_margins_are_exact_and_positive(self, bp):
        verdict = decide_existence(bp.link, bp)
        if verdict.margin is not None:
            assert isinstance(verdict.margin, (int, Fraction))
            assert verdict.margin >= 0

    @given(bp_exponents())
    @settings(max_examples=100, deadline=None)
    def test_status_vocabulary(self, bp):
        verdict = decide_existence(bp.link, bp)
        assert verdict.status in ("se_exists", "obstructed", "unknown", "eta_einstein_exists")
        if verdict.link_type != "positive":
            assert verdict.status == "eta_einstein_exists"


# The definitions that the production forms replaced, kept as oracles: the
# pairwise ones of the closed forms, and each rule's slack as a Fraction,
# with sum 1/a_i summed term by term, as decide_existence once computed them.


def pairwise_coprime_oracle(a) -> bool:
    return all(math.gcd(x, y) == 1 for x, y in combinations(a, 2))


def lichnerowicz_slack_oracle(link) -> Fraction:
    return Fraction(link.index - link.n * min(link.weights))


def crude_klt_slack_oracle(link) -> Fraction:
    n = link.n
    pair_min = min(x * y for x, y in combinations(link.weights, 2))
    return Fraction(n, n - 1) * pair_min - link.index * link.degree


def window_slack_oracle(bp, upper) -> Fraction:
    total = sum(Fraction(1, a) for a in bp.exponents)
    return min(total - 1, upper - total)


def bp_klt_slack_oracle(bp) -> Fraction:
    return window_slack_oracle(bp, window_upper_oracle(bp.exponents))


def ghigi_kollar_slack_oracle(bp) -> Fraction:
    return window_slack_oracle(bp, 1 + Fraction(bp.n, max(bp.exponents)))


def verdict_oracle(link, bp=None) -> tuple:
    """(link_type, status, rule, margin) by the rules in their priority order."""
    if link.index <= 0:
        return ("negative" if link.index < 0 else "null", "eta_einstein_exists", None, None)
    if bp is not None and pairwise_coprime_oracle(bp.exponents):
        slack = ghigi_kollar_slack_oracle(bp)
        if slack > 0:
            return ("positive", "se_exists", "ghigi_kollar", slack)
        return ("positive", "obstructed", "ghigi_kollar", -slack)
    slack = lichnerowicz_slack_oracle(link)
    if slack > 0:
        return ("positive", "obstructed", "lichnerowicz", slack)
    if bp is not None:
        slack = bp_klt_slack_oracle(bp)
        if slack > 0:
            return ("positive", "se_exists", "bp_klt_window", slack)
    slack = crude_klt_slack_oracle(link)
    if slack > 0:
        return ("positive", "se_exists", "crude_klt", slack)
    return ("positive", "unknown", None, None)


def check_verdict(link, bp=None):
    verdict = decide_existence(link, bp)
    expected = verdict_oracle(link, bp)
    assert (verdict.link_type, verdict.status, verdict.rule, verdict.margin) == expected
    # Same value, type and text: the catalog stores str(margin).
    assert type(verdict.margin) is type(expected[3])
    assert str(verdict.margin) == str(expected[3])
    return verdict


@st.composite
def accepted_links(draw):
    """Any (w, d) that WeightedLink accepts, many of them positive with a small index."""
    weights = draw(st.lists(st.integers(1, 10**4), min_size=3, max_size=12))
    total = sum(weights)
    index = draw(st.integers(-10, min(30, total - 1)) | st.integers(1 - 2 * total, total - 1))
    return WeightedLink(weights, total - index)


class TestVerdictOracle:
    @pytest.mark.parametrize("length, max_exponent", [(3, 30), (4, 12), (5, 7)])
    def test_enumerations(self, length, max_exponent):
        rules = set()
        for bp in enumerate_bp(length, max_exponent):
            rules.add(check_verdict(bp.link, bp).rule)
            rules.add(check_verdict(bp.link).rule)
        # Ghigi-Kollar and Lichnerowicz are each reached on two of the three.
        assert {"bp_klt_window", "crude_klt", None} <= rules

    @given(accepted_links())
    @example(WeightedLink((9, 10, 11), 29))  # crude_klt
    @example(WeightedLink((1, 2, 5, 5, 5), 10))  # lichnerowicz
    @example(WeightedLink((1, 1, 1, 1), 3))  # unknown
    @settings(max_examples=300, deadline=None)
    def test_accepted_links(self, link):
        check_verdict(link)


class TestClosedFormsAgainstPairwiseOracles:
    @pytest.mark.parametrize("length, max_exponent", [(3, 30), (4, 12), (5, 7)])
    def test_enumerations(self, length, max_exponent):
        slacks = (
            (_lichnerowicz_slack, lichnerowicz_slack_oracle, False),
            (_crude_klt_slack, crude_klt_slack_oracle, False),
            (_bp_klt_slack, bp_klt_slack_oracle, True),
            (_ghigi_kollar_slack, ghigi_kollar_slack_oracle, True),
        )
        for bp in enumerate_bp(length, max_exponent):
            coprime = pairwise_coprime_oracle(bp.exponents)
            assert bp.pairwise_coprime() == coprime, bp
            for slack, oracle, takes_bp in slacks:
                given_ = bp if takes_bp else bp.link
                numerator, denominator = slack(given_)
                assert denominator > 0, bp
                assert Fraction(numerator, denominator) == oracle(given_), bp
            if length == 3:
                if coprime:
                    casson_invariant(bp.exponents)
                else:
                    with pytest.raises(DomainError, match="are not pairwise coprime$"):
                        casson_invariant(bp.exponents)

    def test_longest_link(self):
        bp = BPExponents((2,) * 64)
        assert not bp.pairwise_coprime()
        assert Fraction(*_bp_klt_slack(bp)) == bp_klt_slack_oracle(bp)
        assert Fraction(*_crude_klt_slack(bp.link)) == crude_klt_slack_oracle(bp.link)
        assert check_verdict(bp.link, bp).status == "unknown"
