"""Presentations, trichotomy, fractional weights, and the input grammar."""

import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selink import (
    BPExponents,
    DomainError,
    WeightedLink,
    as_link,
    bp_to_link,
    classify_type,
    fractional_weights,
    parse_presentation,
)
from selink.links import parse_int
from conftest import bp_exponents, fermat_type_links


class TestWeightedLink:
    def test_basic_attributes(self):
        link = WeightedLink((1, 1, 1, 4, 6), 12)
        assert link.n == 4
        assert link.link_dim == 7
        assert link.index == 1

    def test_weights_keep_input_order(self):
        link = WeightedLink((6, 4, 1, 1, 1), 12)
        assert link.weights == (6, 4, 1, 1, 1)

    def test_canonical_key_sorts(self):
        a = WeightedLink((6, 4, 1, 1, 1), 12)
        b = WeightedLink((1, 1, 1, 4, 6), 12)
        assert a.canonical_key() == b.canonical_key()

    @pytest.mark.parametrize(
        "weights, degree",
        [((1, 1), 2), ((0, 1, 1), 2), ((-1, 2, 3), 4), ((1, 2, 3), 0)],
    )
    def test_rejects_bad_data(self, weights, degree):
        with pytest.raises(DomainError):
            WeightedLink(weights, degree)

    @pytest.mark.parametrize(
        "weights, degree, message",
        [
            ((1.5, 2, 3), 6, "weight must be an integer, got 1.5"),
            ((1, 2, 3), Fraction(13, 2), "degree must be an integer, got Fraction(13, 2)"),
            ((1, 2, 3), "6", "degree must be an integer, got '6'"),
        ],
    )
    def test_rejects_non_integers(self, weights, degree, message):
        # Truncation would turn these into w=1,2,3 d=6.
        with pytest.raises(DomainError, match=re.escape(message)):
            WeightedLink(weights, degree)


class TestBPExponents:
    def test_lcm_degree_and_weights(self):
        link = bp_to_link(BPExponents((2, 3, 5)))
        assert link.degree == 30
        assert link.weights == (15, 10, 6)

    def test_link_is_built_with_the_exponents(self):
        bp = BPExponents([2, 3, 5])
        assert bp.link == WeightedLink((15, 10, 6), 30)
        assert bp_to_link(bp) is bp.link and as_link(bp) is bp.link
        assert bp_to_link((2, 3, 5)) == bp.link  # a plain tuple is coerced

    def test_link_is_not_part_of_equality_hash_or_repr(self):
        bp = BPExponents((2, 3, 5))
        assert bp == BPExponents([2, 3, 5]) and hash(bp) == hash(BPExponents([2, 3, 5]))
        assert bp != BPExponents((2, 3, 7))
        assert repr(bp) == "BPExponents(exponents=(2, 3, 5))"
        assert bp.presentation() == "bp=2,3,5"

    def test_link_survives_pickling(self):
        # batch --jobs hands exponent tuples to worker processes.
        bp = pickle.loads(pickle.dumps(BPExponents((2, 3, 4, 5))))
        assert bp == BPExponents((2, 3, 4, 5))
        assert bp.link == WeightedLink((30, 20, 15, 12), 60)

    def test_exponent_weight_product_is_degree(self):
        bp = BPExponents((4, 4, 4, 6, 10))
        link = bp_to_link(bp)
        for a, w in zip(bp.exponents, link.weights):
            assert a * w == link.degree

    def test_pairwise_coprime(self):
        assert BPExponents((2, 3, 5)).pairwise_coprime()
        assert not BPExponents((2, 4, 5)).pairwise_coprime()

    def test_reciprocal_sum_exact(self):
        assert BPExponents((2, 3, 5)).reciprocal_sum() == Fraction(31, 30)

    def test_rejects_small_exponents(self):
        with pytest.raises(DomainError):
            BPExponents((1, 2, 3))
        with pytest.raises(DomainError):
            BPExponents((2, 2))

    def test_rejects_non_integer_exponents(self):
        # Truncation would turn this into bp=2,3,5.
        with pytest.raises(DomainError, match="exponent must be an integer, got 2.9"):
            BPExponents((2.9, 3, 5))


class TestTrichotomy:
    @pytest.mark.parametrize(
        "weights, degree, expected",
        [
            ((1, 1, 1, 4, 6), 12, "positive"),
            ((1, 1, 1, 1), 4, "null"),
            ((1, 1, 1), 5, "negative"),
        ],
    )
    def test_sign_of_index(self, weights, degree, expected):
        assert classify_type(WeightedLink(weights, degree)) == expected

    @given(bp_exponents())
    def test_bp_positive_iff_reciprocal_sum_exceeds_one(self, bp):
        # Sign of |w| - d agrees with the sign of sum(1/a_i) - 1.
        link = bp_to_link(bp)
        total = bp.reciprocal_sum()
        if classify_type(link) == "positive":
            assert total > 1
        elif classify_type(link) == "negative":
            assert total < 1
        else:
            assert total == 1


class TestFractionalWeights:
    def test_example(self):
        # d=12, w=(1,1,1,4,6): gcds are 1,1,1,4,6.
        fw = fractional_weights(WeightedLink((1, 1, 1, 4, 6), 12))
        assert fw.numerators == (12, 12, 12, 3, 2)
        assert fw.denominators == (1, 1, 1, 1, 1)

    def test_nontrivial_denominator(self):
        # d=6, w=4: gcd=2, u=3, v=2.
        fw = fractional_weights(WeightedLink((4, 3, 2), 6))
        assert fw.numerators == (3, 2, 3)
        assert fw.denominators == (2, 1, 1)

    @given(fermat_type_links())
    def test_reconstruction_identity(self, link):
        # u_i * w_i = d * v_i for every i, and u_i/v_i is reduced.
        fw = fractional_weights(link)
        for u, v, w in zip(fw.numerators, fw.denominators, link.weights):
            assert u * w == link.degree * v
            assert math.gcd(u, v) == 1

    @given(fermat_type_links(max_scale=4))
    def test_scale_invariance(self, link):
        # (t*w, t*d) presents the same link; u and v cannot change.
        t = 3
        scaled = WeightedLink(tuple(t * w for w in link.weights), t * link.degree)
        assert fractional_weights(scaled) == fractional_weights(link)


class TestParser:
    def test_weight_degree_form(self):
        link = parse_presentation("w=1,1,1,4,6 d=12")
        assert isinstance(link, WeightedLink)
        assert link.weights == (1, 1, 1, 4, 6)
        assert link.degree == 12

    def test_bp_form(self):
        bp = parse_presentation("bp=2,3,5")
        assert isinstance(bp, BPExponents)
        assert bp.exponents == (2, 3, 5)

    def test_extra_whitespace_ok(self):
        link = parse_presentation("  w=1,2,3   d=6 ")
        assert link.weights == (1, 2, 3)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "w=1,2,3",            # missing d
            "d=6",                 # missing w
            "bp=2,3,5 d=30",       # bp is exclusive
            "w=1,2,3 d=6 x=1",     # unknown key
            "w=1,a,3 d=6",         # non-integer entry
            "w=1,2,3 6",           # token without '='
            "bp=--5,3,3",          # a second minus sign
            "bp=²,3,5",            # a digit that is not decimal
            "w=1,1,1 d=--3",       # the same in the degree
            pytest.param("bp=2,3," + "7" * 5000, id="more digits than int() reads"),
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(DomainError):
            parse_presentation(text)

    def test_degree_message_names_the_token(self):
        with pytest.raises(DomainError, match=r"^token 'd=1_2' at position 1: '1_2' is not"):
            parse_presentation("w=1,2,3 d=1_2")

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "bp=2,3," + "7" * 5000,
                "token 'bp=2,3," + "7" * 30 + "...' at position 0: "
                "5000 digits, over the limit of 4300",
            ),
            (
                "bp=2," + "x" * 5000,
                "token 'bp=2," + "x" * 32 + "...' at position 0: "
                "'" + "x" * 37 + "...' is not an integer",
            ),
            (
                "y" * 50 + "=1",
                "token '" + "y" * 37 + "...' at position 0: unknown key '" + "y" * 37 + "...'",
            ),
            # Exactly 40 characters are shown whole.
            ("w=1,1,1 d=" + "x" * 38, "token 'd=" + "x" * 38 + "' at position 1: "),
        ],
        ids=["digits", "part", "key", "40 characters"],
    )
    def test_long_tokens_are_cut_in_messages(self, text, message):
        with pytest.raises(DomainError) as excinfo:
            parse_presentation(text)
        assert str(excinfo.value).startswith(message)
        assert len(str(excinfo.value)) < 200

    @given(bp_exponents())
    def test_presentation_round_trip_bp(self, bp):
        assert parse_presentation(bp.presentation()) == bp

    @given(fermat_type_links())
    def test_presentation_round_trip_weights(self, link):
        assert parse_presentation(link.presentation()) == link

    def test_as_link_passthrough(self):
        link = WeightedLink((1, 2, 3), 6)
        assert as_link(link) is link
        assert as_link(BPExponents((2, 3, 5))) == WeightedLink((15, 10, 6), 30)


class TestParseInt:
    @given(st.integers(min_value=-(10**4299) + 1, max_value=10**4299 - 1))
    def test_round_trip(self, n):
        assert parse_int(str(n), "") == n

    @pytest.mark.parametrize(
        "text",
        ["", "-", "2_2", "+3", " 3", "3 ", "--5", "-+5", "²", "0x10", "1e3", "3.0", "٣_٣"],
    )
    def test_rejects_lookalikes(self, text):
        message = f"where: {text!r} is not an integer"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            parse_int(text, "where")

    def test_long_text_is_cut_in_the_message(self):
        text = "1" * 30 + "_" + "2" * 30
        message = f"where: {text[:37] + '...'!r} is not an integer"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            parse_int(text, "where")

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_rejects_more_digits_than_int_reads(self, sign):
        with pytest.raises(DomainError, match="^where: 4301 digits, over the limit of 4300$"):
            parse_int(sign + "1" * 4301, "where")
        assert parse_int(sign + "1" * 4300, "where") == int(sign + "1" * 4300)
