"""Dimension-specific tools: Smale names, the SE table, Casson numbers,
tight contact counts, and monomial/moduli counting."""

import math
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selink import dimension
from selink import (
    BPExponents,
    DomainError,
    HomologyGroup,
    NotSmaleFormError,
    SmaleManifold,
    WeightedLink,
    as_link,
    casson_invariant,
    count_monomials,
    enumerate_bp,
    link_homology,
    moduli_dimension,
    moduli_reference,
    negative_continued_fraction,
    smale_name,
    table_lookup,
    tight_contact_count,
)
from conftest import coprime_triples


class TestSmaleNames:
    def test_sphere(self):
        assert SmaleManifold(0, ()).name() == "S^5"

    def test_free_parts(self):
        assert SmaleManifold(1, ()).name() == "M_inf"
        assert SmaleManifold(4, ()).name() == "4M_inf"

    def test_mixed(self):
        assert SmaleManifold(3, (3, 3, 9)).name() == "3M_inf # 2M_3 # M_9"

    def test_torsion_chain_validated(self):
        with pytest.raises(DomainError):
            SmaleManifold(0, (4, 6))  # 4 does not divide 6
        with pytest.raises(DomainError):
            SmaleManifold(0, (1, 2))

    def test_from_homology_halves_torsion(self):
        # H_2 = Z^2 + Z/12 + Z/12: primary {4,4,3,3} halves to {4,3} = M_12.
        group = HomologyGroup(2, (12, 12), 2, "proven")
        manifold = smale_name(group)
        assert manifold.betti == 2
        assert manifold.torsion_chain == (12,)
        assert manifold.name() == "2M_inf # M_12"

    def test_unpaired_torsion_rejected(self):
        group = HomologyGroup(0, (2,), 2, "proven")
        with pytest.raises(NotSmaleFormError):
            smale_name(group)

    def test_wrong_degree_rejected(self):
        group = HomologyGroup(10, (3,), 3, "proven")
        with pytest.raises(DomainError):
            smale_name(group)

    def test_golden_x6_conversion(self):
        # 5-dim analogue: (1,1,1,3)/6 has H_2 = Z^21, a connected sum of
        # 21 copies of the infinite family generator.
        manifold = smale_name(link_homology(WeightedLink((1, 1, 1, 3), 6)))
        assert manifold.name() == "21M_inf"

    def test_large_factors_are_not_factored(self):
        # A product of two Mersenne primes, far beyond trial division.
        big = (2**61 - 1) * (2**89 - 1)
        manifold = smale_name(HomologyGroup(0, (6 * big, 6 * big, 3, 3), 2, "proven"))
        assert manifold.torsion_chain == (3, 6 * big)


def smale_name_oracle(group: HomologyGroup) -> SmaleManifold:
    """Smale form by halving the multiset of prime powers of the torsion.

    Each prime power must occur an even number of times; half of them are
    reassembled into the ascending divisibility chain, largest factor
    built first.
    """
    prime_exponents: dict[int, list[int]] = {}
    for d in group.torsion:
        for p, e in sympy.factorint(d).items():
            prime_exponents.setdefault(p, []).append(e)
    halved: dict[int, list[int]] = {}
    for p, exps in prime_exponents.items():
        half = []
        for e in set(exps):
            if exps.count(e) % 2:
                raise NotSmaleFormError(f"prime power {p}^{e} appears an odd number of times")
            half.extend([e] * (exps.count(e) // 2))
        halved[p] = sorted(half, reverse=True)
    depth = max((len(v) for v in halved.values()), default=0)
    chain = []
    for j in range(depth):
        chain.append(math.prod(p ** exps[j] for p, exps in halved.items() if j < len(exps)))
    return SmaleManifold(betti=group.betti, torsion_chain=tuple(reversed(chain)))


def outcome(name, group):
    """name(group), or the class of the error it raises."""
    try:
        return name(group)
    except NotSmaleFormError:
        return NotSmaleFormError


@st.composite
def smale_chains(draw):
    """Betti number and an ascending divisibility chain of up to 6 factors <= 10^6."""
    chain = []
    m = 1
    for _ in range(draw(st.integers(0, 6))):
        m *= draw(st.integers(1 if chain else 2, 10**6 // m))
        chain.append(m)
    return draw(st.integers(0, 10)), tuple(chain)


def doubled(betti, chain) -> HomologyGroup:
    """H_2 = Z^betti + G + G for G with the ascending invariant factors chain."""
    return HomologyGroup(betti, tuple(m for m in reversed(chain) for _ in "ab"), 2, "proven")


class TestSmaleNameOracle:
    def test_every_bp_five_link(self):
        count = 0
        for bp in enumerate_bp(4, 20):
            group = link_homology(bp)
            assert outcome(smale_name, group) == outcome(smale_name_oracle, group), bp
            count += 1
        assert count == 7315

    @given(smale_chains())
    @settings(max_examples=300, deadline=None)
    def test_doubled_chains(self, data):
        betti, chain = data
        group = doubled(betti, chain)
        assert smale_name(group) == smale_name_oracle(group) == SmaleManifold(betti, chain)

    @given(smale_chains(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_perturbed_chains(self, data, extra):
        betti, chain = data
        torsion = list(doubled(betti, chain).torsion)
        how = extra.draw(st.sampled_from(("drop", "scale", "append")))
        if how == "drop" and torsion:
            del torsion[extra.draw(st.integers(0, len(torsion) - 1))]
        elif how == "scale" and torsion:
            torsion[0] *= extra.draw(st.integers(2, 50))
        else:
            last = torsion[-1] if torsion else extra.draw(st.integers(2, 10**6))
            divisors = [k for k in sympy.divisors(last) if k >= 2]
            torsion.append(extra.draw(st.sampled_from(divisors)))
        group = HomologyGroup(betti, tuple(torsion), 2, "proven")
        assert outcome(smale_name, group) == outcome(smale_name_oracle, group)


TABLE_CASES = [
    # (betti k, torsion chain, expected status)
    (0, (), "yes"),
    (7, (), "yes"),
    (0, (5, 5), "yes"),
    (0, (4, 4), "yes"),
    (0, (3, 3, 3, 3), "yes"),
    (1, (4, 4), "yes"),
    (2, (4, 4), "no"),
    (0, (3, 3), "yes"),
    (2, (3, 3), "unresolved"),
    (0, (3, 3, 3), "yes"),
    (1, (3, 3, 3), "unresolved"),
    (1, (3, 3, 3, 3), "no"),
    (0, (2,), "yes"),
    (1, (2, 2, 2), "yes"),
    (0, (2, 2), "unresolved"),
    (2, (2,), "unresolved"),
    (0, (7,), "yes"),
    (1, (12,), "yes"),
    (1, (11,), "unresolved"),
    (2, (12,), "yes"),
    (3, (7,), "yes"),
    (3, (9,), "yes"),
    (3, (11,), "yes"),
    (3, (10,), "unresolved"),
    (3, (8,), "unresolved"),
    (4, (5,), "yes"),
    (4, (4,), "unresolved"),
    (5, (12,), "yes"),
    (5, (11,), "unresolved"),
    (6, (3,), "yes"),
    (7, (5,), "yes"),
    (8, (5,), "yes"),
    (8, (4,), "unresolved"),
    (9, (7,), "unresolved"),   # empty condition cell in the table
    (9, (12,), "no"),
    (2, (3, 6), "no"),
    (1, (5, 5), "no"),
]


class TestClassificationTable:
    @pytest.mark.parametrize("betti, torsion, expected", TABLE_CASES)
    def test_lookup(self, betti, torsion, expected):
        assert table_lookup(SmaleManifold(betti, torsion)).status == expected

    def test_yes_rows_carry_their_condition(self):
        result = table_lookup(SmaleManifold(3, (7,)))
        assert result.status == "yes"
        assert result.condition is not None

    def test_unlisted_is_a_definite_no(self):
        result = table_lookup(SmaleManifold(2, (3, 6)))
        assert result.status == "no"


def casson_brute_force(a0, a1, a2) -> int:
    """Plain-Fraction recount of the signature lattice points."""
    tau = 0
    for k0, k1, k2 in product(range(1, a0), range(1, a1), range(1, a2)):
        x = Fraction(k0, a0) + Fraction(k1, a1) + Fraction(k2, a2)
        assert x != 1 and x != 2
        if x < 1 or x > 2:
            tau += 1
        else:
            tau -= 1
    assert tau % 8 == 0
    return tau // 8


def casson_lattice_count(a0, a1, a2) -> int:
    """Direct count over the open box 0 < k_i < a_i, divided by 8.

    The same count as casson_brute_force, vectorized for larger boxes:
    k_0/a_0 + k_1/a_1 + k_2/a_2 is compared with 1 and 2 scaled by
    d = a_0 a_1 a_2, in exact int64.
    """
    d = a0 * a1 * a2
    t1 = np.arange(1, a1, dtype=np.int64) * (a0 * a2)
    t2 = np.arange(1, a2, dtype=np.int64) * (a0 * a1)
    grid12 = t1[:, None] + t2[None, :]
    tau = 0
    for k0 in range(1, a0):
        n = grid12 + k0 * a1 * a2
        assert not ((n == d) | (n == 2 * d)).any(), "lattice point on a wall"
        tau += int(((n < d) | (n > 2 * d)).sum()) - int(((d < n) & (n < 2 * d)).sum())
    assert tau % 8 == 0
    return tau // 8


def coprime_box(b0, b1, b2):
    """Pairwise coprime a0 < a1 < a2 with a0 < b0, a1 < b1, a2 < b2."""
    for a0 in range(2, b0):
        for a1 in range(a0 + 1, b1):
            if math.gcd(a0, a1) != 1:
                continue
            for a2 in range(a1 + 1, b2):
                if math.gcd(a0, a2) == 1 and math.gcd(a1, a2) == 1:
                    yield (a0, a1, a2)


class TestCasson:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_poincare_series(self, k):
        assert casson_invariant((6 * k - 1, 3, 2)) == -k

    @pytest.mark.parametrize("k", [10, 10**3, 10**5, 10**8])
    def test_poincare_family_large_k(self, k):
        # The (a1-1) x (a2-1) grid of a direct count would need gigabytes
        # of memory here.
        assert casson_invariant((2, 3, 6 * k - 1)) == -k
        assert casson_invariant((2, 3, 6 * k + 1)) == -k

    def test_large_triple_pinned(self):
        assert casson_invariant((7, 1999, 2003)) == -1143999
        assert casson_invariant((2003, 7, 1999)) == -1143999

    def test_exponent_order_immaterial(self):
        assert casson_invariant((2, 3, 5)) == casson_invariant((5, 3, 2))

    @pytest.mark.parametrize(
        "triple", [(2, 3, 5), (2, 3, 7), (2, 3, 11), (2, 5, 7), (3, 4, 5), (3, 5, 7)]
    )
    def test_against_brute_force(self, triple):
        assert casson_invariant(triple) == casson_brute_force(*triple)

    def test_against_lattice_count_on_box(self):
        triples = list(coprime_box(16, 32, 48))
        assert len(triples) == 2511
        for triple in triples:
            assert casson_invariant(triple) == casson_lattice_count(*triple), triple

    @given(coprime_triples(max_exponent=14))
    @settings(max_examples=40, deadline=None)
    def test_against_brute_force_random(self, triple):
        assert casson_invariant(triple) == casson_brute_force(*triple)

    @given(coprime_triples(max_exponent=120))
    @settings(max_examples=40, deadline=None)
    def test_against_lattice_count_random(self, triple):
        assert casson_invariant(triple) == casson_lattice_count(*triple)

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            casson_invariant((2, 4, 6))

    def test_rejects_wrong_arity(self):
        with pytest.raises(DomainError):
            casson_invariant((2, 3, 5, 7))

    def test_rejects_non_integer_exponents(self):
        # Truncated, 2.9 would give Sigma(2, 3, 5) and lambda = -1.
        with pytest.raises(DomainError, match="exponent must be an integer, got 2.9"):
            casson_invariant((2.9, 3, 5))


def ncf_value(rs) -> Fraction:
    value = Fraction(rs[-1])
    for r in reversed(rs[:-1]):
        value = r - 1 / value
    return value


class TestContinuedFractions:
    def test_example(self):
        assert negative_continued_fraction(5, 3) == (-2, -3)

    def test_integer_case(self):
        assert negative_continued_fraction(7, 1) == (-7,)

    def test_all_twos_case(self):
        assert negative_continued_fraction(7, 6) == (-2,) * 6

    @given(st.integers(2, 200), st.integers(1, 199))
    @settings(max_examples=200, deadline=None)
    def test_reconstruction_and_bounds(self, p, q):
        assume(q < p and math.gcd(p, q) == 1)
        rs = negative_continued_fraction(p, q)
        assert all(r <= -2 for r in rs)
        assert ncf_value(rs) == Fraction(-p, q)


class TestTightCount:
    @pytest.mark.parametrize("p", range(2, 30))
    def test_endpoints(self, p):
        assert tight_contact_count(p, 1) == p - 1
        if p > 2:
            assert tight_contact_count(p, p - 1) == 1

    def test_lens_5_3(self):
        assert tight_contact_count(5, 3) == 2

    @given(st.integers(2, 150), st.integers(1, 149))
    @settings(max_examples=150, deadline=None)
    def test_at_least_one_and_unity_criterion(self, p, q):
        assume(q < p and math.gcd(p, q) == 1)
        count = tight_contact_count(p, q)
        assert count >= 1
        all_twos = set(negative_continued_fraction(p, q)) == {-2}
        assert (count == 1) == all_twos
        assert all_twos == (q == p - 1)

    @given(st.integers(3, 150), st.integers(2, 149))
    @settings(max_examples=150, deadline=None)
    def test_lens_space_symmetry(self, p, q):
        # L(p,q) and L(p, q^-1 mod p) are diffeomorphic, so the counts of
        # tight structures must coincide.  Independent of the expansion.
        assume(q < p and math.gcd(p, q) == 1)
        q_inv = pow(q, -1, p)
        assert tight_contact_count(p, q) == tight_contact_count(p, q_inv)


def monomial_brute_force(weights, degree) -> int:
    ranges = [range(0, degree // w + 1) for w in weights]
    return sum(
        1
        for exps in product(*ranges)
        if sum(e * w for e, w in zip(exps, weights)) == degree
    )


def monomial_dp(weights, degree) -> int:
    """Counts for every degree up to ``degree``, one weight at a time."""
    counts = [0] * (degree + 1)
    counts[0] = 1
    for w in weights:
        for k in range(w, degree + 1):
            counts[k] += counts[k - w]
    return counts[degree]


def moduli_oracle(link) -> int:
    total = monomial_dp(link.weights, link.degree)
    return 2 * (total - sum(monomial_dp(link.weights, w) for w in link.weights))


# At most 7 terms per weight, so count_monomials enumerates ...
_ENUMERATED = st.integers(1000, 20000).flatmap(
    lambda degree: st.tuples(
        st.lists(st.integers(degree // 6, degree), min_size=3, max_size=5),
        st.just(degree),
    )
)
# ... and hundreds of terms per weight, so it fills the degree-long table.
_TABULATED = st.tuples(
    st.lists(st.integers(1, 3), min_size=4, max_size=6), st.integers(200, 3000)
)


class TestMonomialCounting:
    def test_reference_example_values(self):
        assert count_monomials((1, 1, 1, 4, 6), 12) == monomial_brute_force(
            (1, 1, 1, 4, 6), 12
        )

    @pytest.mark.parametrize(
        "weights, degree",
        [((1, 1, 1), 6), ((1, 2, 3), 12), ((2, 3, 5, 7), 24), ((1, 1, 4, 6), 24)],
    )
    def test_against_brute_force(self, weights, degree):
        assert count_monomials(weights, degree) == monomial_brute_force(weights, degree)

    @given(
        st.lists(st.integers(1, 6), min_size=3, max_size=5),
        st.integers(0, 24),
    )
    @settings(max_examples=100, deadline=None)
    def test_against_brute_force_random(self, weights, degree):
        assume(sum(weights) <= 12)
        assert count_monomials(tuple(weights), degree) == monomial_brute_force(
            tuple(weights), degree
        )

    def test_degree_zero(self):
        assert count_monomials((1, 2, 3), 0) == 1

    def test_two_variables_against_brute_force(self):
        for a in range(1, 9):
            for b in range(1, 13):
                for degree in range(49):
                    assert count_monomials((a, b), degree) == monomial_brute_force(
                        (a, b), degree
                    ), (a, b, degree)

    @pytest.mark.parametrize(
        "weights, degree, expected",
        [
            ((4, 6), 10, 1),  # gcd 2 divides 10: 4 + 6
            ((4, 6), 11, 0),  # gcd 2 does not divide 11
            ((6, 10), 30, 2),  # 5 * 6 and 3 * 10
            ((6, 10), 32, 1),  # 2 * 6 + 2 * 10
            ((6, 10), 33, 0),
            ((7, 7), 21, 4),
            ((5,), 15, 1),
            ((5,), 16, 0),
            ((), 0, 1),
            ((), 3, 0),
        ],
    )
    def test_closed_form_cases(self, weights, degree, expected):
        assert count_monomials(weights, degree) == expected
        assert monomial_brute_force(weights, degree) == expected

    @given(st.one_of(_ENUMERATED, _TABULATED))
    @settings(max_examples=150, deadline=None)
    def test_against_dp_oracle(self, case):
        weights, degree = case
        assert count_monomials(weights, degree) == monomial_dp(weights, degree)

    @pytest.mark.parametrize(
        "weights, degree, enumerated",
        [
            ((1667, 2001, 5000, 9999), 10000, True),  # from _ENUMERATED
            ((1, 1, 2, 3, 3), 2999, False),  # from _TABULATED
            ((6, 4, 1, 1, 1), 12, False),
            ((1, 1, 1, 1, 1), 1000, False),
        ],
    )
    def test_each_method_is_reached(self, monkeypatch, weights, degree, enumerated):
        calls = []
        enumerate_ = dimension._enumerate

        def spy(ws, m):
            calls.append((ws, m))
            return enumerate_(ws, m)

        monkeypatch.setattr(dimension, "_enumerate", spy)
        assert count_monomials(weights, degree) == monomial_dp(weights, degree)
        assert bool(calls) == enumerated

    @pytest.mark.parametrize(
        "weights, degree",
        [((1.7, 1), 3), ((Fraction(3, 2), 1), 3), ((1, 2), 3.0), ((1, 2), "3")],
    )
    def test_rejects_non_integer_input(self, weights, degree):
        # int() would truncate (1.7, 1) to (1, 1) and count 4.
        with pytest.raises(DomainError):
            count_monomials(weights, degree)

    def test_rejects_nonpositive_weight_and_negative_degree(self):
        with pytest.raises(DomainError):
            count_monomials((1, 0), 3)
        with pytest.raises(DomainError):
            count_monomials((1, 2), -1)

    def test_many_weights_stars_and_bars(self):
        # 10^5 unit weights: C(n + d - 1, d) monomials of degree d.
        assert count_monomials((1,) * 100_000, 3) == math.comb(100_002, 3)

    def test_refuses_work_over_the_limit(self):
        # The table needs 1.5 * 10^10 cells here, and enumeration far more.
        with pytest.raises(DomainError):
            count_monomials((1, 1, 1, 1), 3 * 10**9)


class TestModuli:
    def test_reference_link_value_and_delta(self):
        link = WeightedLink((1, 1, 1, 4, 6), 12)
        value = moduli_dimension(link)
        assert value == 2 * (
            count_monomials(link.weights, 12)
            - sum(count_monomials(link.weights, w) for w in link.weights)
        )
        assert value == 254
        assert moduli_reference(link) == 266
        assert value - moduli_reference(link) == -12

    def test_reference_lookup_sorts_weights(self):
        assert moduli_reference(WeightedLink((6, 4, 1, 1, 1), 12)) == 266
        assert moduli_reference(WeightedLink((1, 1, 1), 3)) is None

    def test_determinism(self):
        link = WeightedLink((1, 1, 1, 4, 6), 12)
        assert moduli_dimension(link) == moduli_dimension(link)

    def test_negative_count_is_returned_without_warning(self):
        # The sign is in the value; the CLI, not the library, warns about it.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert moduli_dimension(WeightedLink((1, 1, 1), 2)) == -6
        assert caught == []

    @pytest.mark.parametrize("length, max_exponent", [(3, 20), (4, 12), (5, 7)])
    def test_enumerations_against_dp_oracle(self, length, max_exponent):
        for bp in enumerate_bp(length, max_exponent):
            link = as_link(bp)
            assert moduli_dimension(link) == moduli_oracle(link), bp
