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
    classify_type,
    enumerate_bp,
    fractional_weights,
    parse_presentation,
)
from selink.links import parse_int
from conftest import bp_exponents, fermat_type_links, reciprocal_sum

# The links of the Brieskorn-Pham enumerations (length, max exponent).
CENSUS = ((3, 30), (4, 12), (5, 7))

# Any (w, d) that WeightedLink accepts, whether or not it bounds a link.
weight_degree_pairs = st.builds(
    WeightedLink,
    st.lists(st.integers(1, 10**4), min_size=3, max_size=12),
    st.integers(1, 10**4),
)


def census_links():
    return (bp.link for enum in CENSUS for bp in enumerate_bp(*enum))


class TestWeightedLink:
    def test_basic_attributes(self):
        link = WeightedLink((1, 1, 1, 4, 6), 12)
        assert link.n == 4
        assert link.link_dim == 7
        assert link.index == 1

    @staticmethod
    def check_derived_fields(link):
        assert link.n == len(link.weights) - 1
        assert link.index == sum(link.weights) - link.degree

    def test_derived_fields_on_the_census(self):
        for link in census_links():
            self.check_derived_fields(link)

    @given(weight_degree_pairs)
    def test_derived_fields(self, link):
        self.check_derived_fields(link)

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
            # The first value that is not an integer is the one named,
            # and the weights are read before the degree.
            ((1, 1.5, 2.5), 6, "weight must be an integer, got 1.5"),
            ((1, "2", 1.5), 6, "weight must be an integer, got '2'"),
            ((1.5, 2, 3), 6.5, "weight must be an integer, got 1.5"),
            ([2, 3, None], 6, "weight must be an integer, got None"),
            ((1, 2, 3), 6.0, "degree must be an integer, got 6.0"),
        ],
    )
    def test_rejects_non_integers(self, weights, degree, message):
        # Truncation would turn these into w=1,2,3 d=6.
        with pytest.raises(DomainError) as excinfo:
            WeightedLink(weights, degree)
        assert str(excinfo.value) == message

    def test_weights_may_be_any_iterable(self):
        assert WeightedLink(iter([1, 2, 3]), 6) == WeightedLink((1, 2, 3), 6)
        with pytest.raises(DomainError) as excinfo:
            WeightedLink((w for w in (1, 2.5, 3.5)), 6)
        assert str(excinfo.value) == "weight must be an integer, got 2.5"


class TestBPExponents:
    def test_lcm_degree_and_weights(self):
        link = BPExponents((2, 3, 5)).link
        assert link.degree == 30
        assert link.weights == (15, 10, 6)

    def test_link_is_built_with_the_exponents(self):
        bp = BPExponents([2, 3, 5])
        assert bp.link == WeightedLink((15, 10, 6), 30)
        assert as_link(bp) is bp.link

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

    @staticmethod
    def check_exponent_weight_product(bp):
        # d = lcm(a) and a_i w_i = d for every i; BPExponents builds
        # w_i = d // a_i and relies on each a_i dividing d without checking.
        link = bp.link
        assert link.degree == math.lcm(*bp.exponents)
        for a, w in zip(bp.exponents, link.weights, strict=True):
            assert a * w == link.degree

    def test_exponent_weight_product_is_degree(self):
        self.check_exponent_weight_product(BPExponents((4, 4, 4, 6, 10)))
        for enum in CENSUS:
            for bp in enumerate_bp(*enum):
                self.check_exponent_weight_product(bp)

    @given(st.one_of(bp_exponents(), bp_exponents(max_len=64, max_exponent=10**12)))
    def test_exponent_weight_product_is_degree_random(self, bp):
        self.check_exponent_weight_product(bp)

    def test_pairwise_coprime(self):
        assert BPExponents((2, 3, 5)).pairwise_coprime()
        assert not BPExponents((2, 4, 5)).pairwise_coprime()

    def test_reciprocal_sum_exact(self):
        assert reciprocal_sum(BPExponents((2, 3, 5))) == Fraction(31, 30)

    def test_reciprocal_sum_is_the_sum_of_reciprocals_on_the_census(self):
        # |w| / d against the definition, term by term.
        for enum in CENSUS:
            for bp in enumerate_bp(*enum):
                expected = sum((Fraction(1, a) for a in bp.exponents), Fraction(0))
                assert reciprocal_sum(bp) == expected, bp

    def test_rejects_small_exponents(self):
        with pytest.raises(DomainError):
            BPExponents((1, 2, 3))
        with pytest.raises(DomainError):
            BPExponents((2, 2))

    @pytest.mark.parametrize(
        "exponents, message",
        [
            # Truncation would turn the first into bp=2,3,5.
            ((2.9, 3, 5), "exponent must be an integer, got 2.9"),
            ((2.9, "x", 5), "exponent must be an integer, got 2.9"),
            ((2, 3.0, 5.5), "exponent must be an integer, got 3.0"),
            ((2, 3, Fraction(5, 2)), "exponent must be an integer, got Fraction(5, 2)"),
        ],
    )
    def test_rejects_non_integer_exponents(self, exponents, message):
        with pytest.raises(DomainError) as excinfo:
            BPExponents(exponents)
        assert str(excinfo.value) == message


class TestWeightBound:
    """At most 64 weights or exponents, refused before any lcm is taken."""

    def test_longest_links_are_built(self):
        assert WeightedLink((1,) * 64, 64).n == 63
        assert BPExponents((2,) * 64).link == WeightedLink((1,) * 64, 2)
        assert parse_presentation("bp=" + ",".join(["3"] * 64)).n == 63

    def test_one_more_is_refused(self):
        with pytest.raises(DomainError, match=r"^need at most 64 weights, got 65$"):
            WeightedLink((1,) * 65, 65)
        with pytest.raises(DomainError, match=r"^need at most 64 exponents, got 65$"):
            BPExponents((2,) * 65)
        with pytest.raises(DomainError, match=r"^need at most 64 exponents, got 65$"):
            parse_presentation("bp=" + ",".join(["3"] * 65))

    def test_refused_before_any_lcm(self, monkeypatch):
        def no_lcm(*numbers):
            raise AssertionError("lcm taken for an overlong link")

        monkeypatch.setattr(math, "lcm", no_lcm)
        with pytest.raises(DomainError, match=r"^need at most 64 exponents, got 1000000$"):
            BPExponents(range(2, 1_000_002))


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
        link = bp.link
        total = reciprocal_sum(bp)
        if classify_type(link) == "positive":
            assert total > 1
        elif classify_type(link) == "negative":
            assert total < 1
        else:
            assert total == 1


class TestFractionalWeights:
    def test_example(self):
        # d=12, w=(1,1,1,4,6): gcds are 1,1,1,4,6.
        u, v = fractional_weights(WeightedLink((1, 1, 1, 4, 6), 12))
        assert u == (12, 12, 12, 3, 2)
        assert v == (1, 1, 1, 1, 1)

    def test_nontrivial_denominator(self):
        # d=6, w=4: gcd=2, u=3, v=2.
        u, v = fractional_weights(WeightedLink((4, 3, 2), 6))
        assert u == (3, 2, 3)
        assert v == (2, 1, 1)

    @staticmethod
    def check_reconstruction_identity(link):
        # u_i * w_i = d * v_i for every i, and u_i/v_i is a reduced
        # fraction of positive integers; fractional_weights relies on
        # this without checking it.
        for u, v, w in zip(*fractional_weights(link), link.weights, strict=True):
            assert u * w == link.degree * v
            assert math.gcd(u, v) == 1 and u > 0 and v > 0

    def test_reconstruction_identity_on_the_census(self):
        for link in census_links():
            self.check_reconstruction_identity(link)

    @given(st.one_of(fermat_type_links(), weight_degree_pairs))
    def test_reconstruction_identity(self, link):
        self.check_reconstruction_identity(link)

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("w=1,2,3 6", "token '6' at position 1: expected key=value"),
            ("w=1,2,3 w=1,2,3 d=6", "token 'w=1,2,3' at position 1: duplicate key"),
            ("bp=2,3,5 bp=2,3,5", "token 'bp=2,3,5' at position 1: duplicate key"),
            ("w=1,2,3 d=6 x=1", "token 'x=1' at position 2: unknown key 'x'"),
            ("w=1,2,3 =5", "token '=5' at position 1: unknown key ''"),
            ("w=1,a,3 d=6", "token 'w=1,a,3' at position 0: 'a' is not an integer"),
            ("w=1,2,3 d=6.0", "token 'd=6.0' at position 1: '6.0' is not an integer"),
            ("w=1,,3 d=6", "token 'w=1,,3' at position 0: '' is not an integer"),
            ("bp=2,3,-", "token 'bp=2,3,-' at position 0: '-' is not an integer"),
            (
                "w=1,2,3 d=" + "9" * 4301,
                "token 'd=" + "9" * 35 + "...' at position 1: 4301 digits, over the limit of 4300",
            ),
            ("bp=2,3,5 d=30", "bp=... cannot be combined with other keys"),
            ("d=30 bp=2,3,5", "bp=... cannot be combined with other keys"),
            ("w=1,2,3", "incomplete presentation 'w=1,2,3': need bp=... or w=... d=..."),
            ("d=6", "incomplete presentation 'd=6': need bp=... or w=... d=..."),
            ("   ", "empty presentation"),
            # A token of 40 characters is shown whole, one of 41 is cut.
            ("x" * 40, "token '" + "x" * 40 + "' at position 0: expected key=value"),
            ("x" * 41, "token '" + "x" * 37 + "...' at position 0: expected key=value"),
            (
                "bp=2,3,5 junk=" + "1" * 40,
                "token 'junk=" + "1" * 32 + "...' at position 1: unknown key 'junk'",
            ),
            ("w=1,2 d=3", "need at least 3 weights, got 2"),
            ("w=0,1,1 d=2", "weights must be positive integers: (0, 1, 1)"),
            ("bp=1,2,3", "exponents must all be >= 2: (1, 2, 3)"),
        ],
    )
    def test_error_texts(self, text, message):
        with pytest.raises(DomainError) as excinfo:
            parse_presentation(text)
        assert str(excinfo.value) == message

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
