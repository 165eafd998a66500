"""Betti numbers and torsion against frozen golden data and oracles.

The golden rows below were machine-checked published values; they pin
the subset-sum conventions (empty product = 1, lcm of nothing = 1, and
the multiplicity sum running over ALL subsets of the index set, not just
proper ones).  test_proper_subset_variant_breaks_golden_data documents
why the last convention is forced.  The definitional O(3^m) tables live
here as oracles, and TestMoebiusAgainstOracle holds the shipped O(m 2^m)
transforms to them exactly.
"""

import math
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from selink import (
    BPExponents,
    DomainError,
    HomologyGroup,
    InternalConsistencyError,
    TorsionDivisionError,
    WeightedLink,
    betti_number,
    bp_to_link,
    fractional_weights,
    link_homology,
    orlik_table,
    torsion_orders,
)
from selink import homology
from selink.catalog import run_pipeline
from selink.homology import _gcd_moebius, factorint
from conftest import bp_exponents, coprime_triples, fermat_type_links

# (weights, degree, betti, torsion as primary prime-power multiset)
GOLDEN_HYPERSURFACES = [
    ((1, 1, 1, 1, 3), 6, 104, (2,)),
    ((1, 1, 1, 2, 4), 8, 128, (4,)),
    ((1, 1, 2, 2, 5), 10, 128, (2, 2, 2, 2)),
    ((1, 1, 1, 4, 6), 12, 222, ()),
    ((1, 1, 2, 3, 6), 12, 150, (3, 4)),
    ((1, 1, 3, 4, 4), 12, 120, (4, 4)),
    ((1, 2, 3, 3, 4), 12, 80, (2, 2, 3, 3, 3)),
    ((1, 2, 3, 5, 7), 17, 112, (17,)),
    ((1, 1, 2, 6, 9), 18, 256, (2, 2)),
    ((1, 3, 4, 5, 7), 19, 90, (19,)),
    ((1, 1, 4, 5, 10), 20, 216, (5,)),
    ((1, 1, 3, 8, 12), 24, 308, (3,)),
    ((1, 2, 3, 10, 15), 30, 242, (2, 2, 3)),
    ((1, 1, 6, 14, 21), 42, 480, ()),
]


class TestGoldenTable:
    @pytest.mark.parametrize("weights, degree, betti, primary", GOLDEN_HYPERSURFACES)
    def test_row(self, weights, degree, betti, primary):
        group = link_homology(WeightedLink(weights, degree))
        assert group.betti == betti
        assert group.primary_decomposition() == tuple(sorted(primary))
        assert group.degree == 3

    def test_weight_order_is_immaterial(self):
        a = link_homology(WeightedLink((1, 1, 1, 1, 3), 6))
        b = link_homology(WeightedLink((3, 1, 1, 1, 1), 6))
        assert (a.betti, a.torsion) == (b.betti, b.torsion)


class TestFermatLinks:
    def test_cubic_sevenfold(self):
        group = link_homology(BPExponents((3, 3, 3, 3, 3)))
        assert (group.betti, group.torsion) == (10, (3,))
        assert group.applicability == "proven"

    def test_quartic_sevenfold(self):
        group = link_homology(BPExponents((4, 4, 4, 4, 4)))
        assert (group.betti, group.torsion) == (60, (4,))

    def test_same_links_presented_by_weights(self):
        assert link_homology(WeightedLink((1, 1, 1, 1, 1), 3)).betti == 10
        assert link_homology(WeightedLink((1, 1, 1, 1, 1), 4)).torsion == (4,)

    @pytest.mark.parametrize("m", [4, 5, 7, 14])
    def test_branched_quartic_family(self, m):
        # Machine-checked golden family: Z^60 + Z_{4m} + (Z_m)^20.
        group = link_homology(BPExponents((4 * m, 4, 4, 4, 4)))
        expected = [4 * m] + [m] * 20
        primary = []
        for d in expected:
            for p, e in _factor(d).items():
                primary.append(p**e)
        assert group.betti == 60
        assert group.primary_decomposition() == tuple(sorted(primary))


def _factor(x: int) -> dict:
    factors: dict[int, int] = {}
    p = 2
    while p * p <= x:
        while x % p == 0:
            factors[p] = factors.get(p, 0) + 1
            x //= p
        p += 1
    if x > 1:
        factors[x] = factors.get(x, 0) + 1
    return factors


class TestHomotopySpheres:
    @pytest.mark.parametrize("exponents", [(2, 3, 5), (2, 3, 11), (2, 3, 7)])
    def test_integral_homology_spheres(self, exponents):
        group = link_homology(BPExponents(exponents))
        assert (group.betti, group.torsion) == (0, ())

    def test_binary_dihedral_example(self):
        group = link_homology(BPExponents((2, 2, 2)))
        assert (group.betti, group.torsion) == (0, (2,))

    def test_table_row_rank_one(self):
        group = link_homology(WeightedLink((1, 3, 3, 3), 6))
        assert (group.betti, group.torsion) == (1, ())


def bp_monodromy_fixed_count(exponents) -> int:
    """Independent Betti oracle for Brieskorn-Pham links.

    The middle Betti number equals the number of monodromy eigenvalue
    tuples multiplying to 1: tuples (x_0..x_n), 1 <= x_i <= a_i - 1, with
    sum x_i / a_i an integer.  Pure brute force, no shared code with the
    subset-sum implementation.
    """
    count = 0
    for xs in product(*(range(1, a) for a in exponents)):
        if sum(Fraction(x, a) for x, a in zip(xs, exponents)) % 1 == 0:
            count += 1
    return count


class TestBettiOracle:
    @pytest.mark.parametrize(
        "exponents",
        [(2, 3, 5), (2, 2, 2), (3, 3, 3), (2, 3, 4), (2, 4, 6), (3, 3, 3, 3, 3),
         (2, 2, 3, 4), (2, 3, 4, 5), (6, 4, 2), (5, 5, 5)],
    )
    def test_matches_eigenvalue_count(self, exponents):
        bp = BPExponents(exponents)
        assert betti_number(bp_to_link(bp)) == bp_monodromy_fixed_count(exponents)

    @given(bp_exponents(max_len=4, max_exponent=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_eigenvalue_count_random(self, bp):
        assert betti_number(bp_to_link(bp)) == bp_monodromy_fixed_count(bp.exponents)


class TestOrlikTable:
    def test_fermat_cubic_c_values(self):
        # u = (3,3,3,3,3): c_empty = 3 and every larger gcd ratio collapses to 1.
        table = orlik_table(WeightedLink((1, 1, 1, 1, 1), 3))
        assert table.c[0] == 3
        for i in range(5):
            assert table.c[1 << i] == 1

    def test_trivial_when_weights_equal_degree(self):
        # u = (1,...,1): every c is 1, no torsion.
        table = orlik_table(WeightedLink((2, 2, 2), 2))
        assert table.c[0] == 1
        assert torsion_orders(table) == ()

    def test_full_mask_not_computed(self):
        table = orlik_table(WeightedLink((1, 1, 1), 3))
        assert table.c[-1] is None

    def test_golden_x6_torsion(self):
        table = orlik_table(WeightedLink((1, 1, 1, 1, 3), 6))
        assert torsion_orders(table) == (2,)

    @given(fermat_type_links(max_n=3, max_degree=30))
    @settings(max_examples=80, deadline=None)
    def test_k_parity_zeros(self, link):
        # Multiplicity vanishes on subsets where the epsilon factor is even.
        table = orlik_table(link)
        m = table.size
        for mask in range((1 << m) - 1):
            s = bin(mask).count("1")
            if (m - s) % 2 == 0:
                assert table.k[mask] == 0

    @given(fermat_type_links(max_n=3, max_degree=30))
    @settings(max_examples=80, deadline=None)
    def test_c_values_are_positive_integers(self, link):
        table = orlik_table(link)
        for mask, c in enumerate(table.c[:-1]):
            assert isinstance(c, int) and c >= 1


class TestProperties:
    @given(fermat_type_links())
    @settings(max_examples=150, deadline=None)
    def test_betti_integral_nonnegative(self, link):
        assert betti_number(link) >= 0

    @given(fermat_type_links())
    @settings(max_examples=100, deadline=None)
    def test_divisibility_chain(self, link):
        torsion = link_homology(link).torsion
        for a, b in zip(torsion, torsion[1:]):
            assert a % b == 0 and b >= 2

    @given(coprime_triples())
    @settings(max_examples=80, deadline=None)
    def test_coprime_bp_is_homotopy_sphere(self, triple):
        group = link_homology(BPExponents(triple))
        assert (group.betti, group.torsion) == (0, ())

    @given(bp_exponents(max_len=5, max_exponent=10))
    @settings(max_examples=80, deadline=None)
    def test_bp_flagged_proven(self, bp):
        assert link_homology(bp).applicability == "proven"

    def test_dimension_three_proven_without_source(self):
        assert link_homology(WeightedLink((1, 1, 1, 1), 2)).applicability == "proven"

    def test_dimension_seven_conjectural_without_source(self):
        group = link_homology(WeightedLink((1, 1, 1, 1, 3), 6))
        assert group.applicability == "conjectural"

    def test_chain_source_is_proven(self):
        group = link_homology(WeightedLink((1, 1, 1, 1, 3), 6), source="chain")
        assert group.applicability == "proven"


class TestFactorint:
    def test_matches_sympy_up_to_ten_thousand(self):
        for n in range(1, 10**4 + 1):
            assert factorint(n) == sympy.factorint(n), n

    @pytest.mark.parametrize(
        "n",
        [10007 * 10009, 99991 * 100003, 999983 * 1000003, 2**31 - 1, 3**20 * 7919**2],
    )
    def test_large_semiprimes_and_powers(self, n):
        assert factorint(n) == sympy.factorint(n)


class TestErrorPaths:
    def test_non_presentation_data_aborts(self):
        # No weighted-homogeneous polynomial with isolated singularity has
        # these data; the alternating sum is non-integral and must abort
        # rather than round.
        with pytest.raises(InternalConsistencyError):
            betti_number(WeightedLink((3, 3, 4), 6))

    @pytest.mark.parametrize(
        "torsion", [(0,), (1,), (4, 0), (6, 2, 1), (12, 4, 6), (9, 6)]
    )
    def test_torsion_chain_checked(self, torsion):
        # A 0 entry, a 1 entry, and pairs where the later does not divide.
        with pytest.raises(InternalConsistencyError):
            HomologyGroup(0, torsion, 2, "proven")

    @pytest.mark.parametrize("torsion", [(), (2,), (12, 6, 2), (0, 2), (2**40, 2**20)])
    def test_torsion_chain_accepted(self, torsion):
        # (0, 2) passes: 2 divides 0, and only the first entry may be < 2.
        assert HomologyGroup(0, torsion, 2, "proven").torsion == torsion

    @given(st.lists(st.sampled_from([-2, 0, 1, 2, 3, 4, 6, 12]), max_size=7))
    @settings(max_examples=300, deadline=None)
    def test_torsion_chain_check_matches_pairwise_loop(self, torsion):
        torsion = tuple(torsion)
        pruned_chain = all(
            b >= 2 and a % b == 0 for a, b in zip(torsion, torsion[1:])
        ) and (not torsion or torsion[-1] >= 2)
        if pruned_chain:
            HomologyGroup(0, torsion, 2, "proven")
        else:
            with pytest.raises(InternalConsistencyError):
                HomologyGroup(0, torsion, 2, "proven")

    def test_torsion_division_error_carries_subset(self):
        err = TorsionDivisionError((0, 2), 7, 3)
        assert err.subset == (0, 2)
        assert "7" in str(err) and "3" in str(err)


class TestSizeCaps:
    """Oversized links fail before any subset work, with fixed messages.

    For 13 <= n <= 20 the torsion-table cap must fire before the
    O(2^(n+1)) Betti sum, which the patched ``betti_number`` would reject;
    beyond n = 20 the Betti cap's message still comes first.
    """

    @pytest.mark.parametrize(
        "n, message",
        [
            (13, "n=13 too large for the torsion table"),
            (17, "n=17 too large for the torsion table"),
            (20, "n=20 too large for the torsion table"),
            (21, "n=21 too large for subset enumeration"),
        ],
    )
    def test_link_homology_message(self, n, message, monkeypatch):
        if n <= homology._MAX_N_BETTI:

            def no_betti_sum(link):
                raise AssertionError("Betti sum run for an oversized table")

            monkeypatch.setattr(homology, "betti_number", no_betti_sum)
        bp = BPExponents((2,) + (3,) * n)
        with pytest.raises(DomainError) as info:
            link_homology(bp)
        assert str(info.value) == message
        record = run_pipeline(bp)
        assert f"homology: {message}" in record.error.split("; ")


def _subset_data(u, v):
    """Per-bitmask products of u, of v, and lcm of u, built incrementally."""
    m = len(u)
    size = 1 << m
    prod_u = [1] * size
    prod_v = [1] * size
    lcm_u = [1] * size
    for mask in range(1, size):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        prod_u[mask] = prod_u[rest] * u[i]
        prod_v[mask] = prod_v[rest] * v[i]
        lcm_u[mask] = math.lcm(lcm_u[rest], u[i])
    return prod_u, prod_v, lcm_u


def betti_oracle(u, v) -> Fraction:
    """The Betti sum term by term, as a Fraction (not checked for integrality)."""
    m = len(u)
    prod_u, prod_v, lcm_u = _subset_data(u, v)
    total = Fraction(0)
    for mask in range(1 << m):
        sign = -1 if (m - bin(mask).count("1")) % 2 else 1
        total += Fraction(sign * prod_u[mask], prod_v[mask] * lcm_u[mask])
    return total


def orlik_oracle(u, v, *, k_over_proper_subsets=False):
    """Definitional c and k tables: nested submask loops, 3^m pairs.

    c_S divides the complement gcd by the product of c over every proper
    subset of S, in increasing popcount order; k_S sums the signed terms
    over the subsets of S.  ``k_over_proper_subsets`` leaves J = S out of
    that sum, the misreading that TestSumConvention rules out.
    """
    m = len(u)
    size = 1 << m
    full = size - 1
    prod_u, prod_v, lcm_u = _subset_data(u, v)
    gcd_comp = [0] * size
    for mask in range(size):
        g = 0
        for i in range(m):
            if not mask >> i & 1:
                g = math.gcd(g, u[i])
        gcd_comp[mask] = g

    c: list = [None] * size
    k: list = [Fraction(0)] * size
    for mask in sorted(range(size), key=lambda x: bin(x).count("1")):
        s = bin(mask).count("1")
        if mask != full:
            denom = 1
            if mask:
                sub = (mask - 1) & mask
                while True:  # all proper submasks, the empty one included
                    denom *= c[sub]
                    if sub == 0:
                        break
                    sub = (sub - 1) & mask
            quotient, remainder = divmod(gcd_comp[mask], denom)
            if remainder != 0:
                subset = tuple(i for i in range(m) if mask >> i & 1)
                raise TorsionDivisionError(subset, gcd_comp[mask], denom)
            c[mask] = quotient
        if (m - s) % 2 == 1:
            acc = Fraction(0)
            sub = (mask - 1) & mask if k_over_proper_subsets else mask
            while True:
                t = bin(sub).count("1")
                sign = -1 if (s - t) % 2 else 1
                acc += Fraction(sign * prod_u[sub], prod_v[sub] * lcm_u[sub])
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            k[mask] = acc
    return c, k


def torsion_chain_oracle(c, k) -> tuple[int, ...]:
    """d_j = prod(c_S : k_S >= j) for j = 1..floor(max k), trivial ones pruned.

    Each d_j is a fresh product over the masks, O(r * F) for F masks.
    """
    factors = [(math.floor(kk), cc) for cc, kk in zip(c[:-1], k[:-1]) if kk >= 1 and cc > 1]
    r = max((count for count, _ in factors), default=0)
    out = []
    for j in range(1, r + 1):
        d = 1
        for count, cc in factors:
            if count >= j:
                d *= cc
        if d > 1:
            out.append(d)
    return tuple(out)


def _torsion_proper_subset_variant(link) -> tuple[int, ...]:
    """Deliberately mis-specified multiplicity sum, for contrast.

    Identical to the definitional tables except the k sum omits the subset
    itself (runs over proper subsets only).  A plausible literal reading,
    kept here to show it contradicts the machine-checked golden family.
    """
    fw = fractional_weights(link)
    c, k = orlik_oracle(fw.numerators, fw.denominators, k_over_proper_subsets=True)
    return torsion_chain_oracle(c, k)


def assert_matches_oracle(link):
    """c, k, Betti and torsion bit-identical to the definitional versions."""
    fw = fractional_weights(link)
    u, v = fw.numerators, fw.denominators
    c, k = orlik_oracle(u, v)
    table = orlik_table(link)
    assert table.size == len(u)
    assert list(table.c) == c
    assert list(table.k) == k
    assert all(type(x) is Fraction for x in table.k)
    assert torsion_orders(table) == torsion_chain_oracle(c, k)
    betti = betti_oracle(u, v)
    assert betti.denominator == 1 and betti >= 0
    assert betti_number(link) == betti


class TestMoebiusAgainstOracle:
    """The O(m 2^m) transforms against the definitional O(3^m) loops."""

    @given(bp_exponents(max_len=8, max_exponent=12))
    @settings(max_examples=60, deadline=None)
    def test_bp_tuples(self, bp):
        assert_matches_oracle(bp_to_link(bp))

    @given(fermat_type_links(max_n=6))
    @settings(max_examples=80, deadline=None)
    def test_weighted_fermat_links(self, link):
        assert_matches_oracle(link)

    @pytest.mark.parametrize(
        "exponents", [(3, 3, 4, 5, 5, 6, 6, 7, 8, 8), (2, 2, 2, 3, 5, 5, 6, 7, 7, 7, 8)]
    )
    def test_long_tuples(self, exponents):
        assert_matches_oracle(bp_to_link(BPExponents(exponents)))

    @given(
        st.lists(
            st.one_of(st.integers(1, 720), st.integers(1, 2**64)), min_size=3, max_size=8
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_c_transform_is_integral_on_any_positive_u(self, u):
        # The p-adic Moebius argument in orlik_table's docstring: no
        # division in the in-place passes leaves a remainder.
        c = _gcd_moebius(tuple(u))
        assert c[-1] is None
        assert all(type(x) is int and x >= 1 for x in c[:-1])
        assert c == orlik_oracle(u, [1] * len(u))[0]


class TestSumConvention:
    def test_proper_subset_variant_breaks_golden_data(self):
        # The branched quartic family (m=4) distinguishes the conventions:
        # including the subset itself in the multiplicity sum reproduces
        # Z_16 + (Z_4)^20; omitting it does not.
        link = bp_to_link(BPExponents((16, 4, 4, 4, 4)))
        golden_primary = tuple(sorted([16] + [4] * 20))

        group = link_homology(link)
        assert group.primary_decomposition() == golden_primary

        variant = _torsion_proper_subset_variant(link)
        primary_variant = []
        for d in variant:
            for p, e in _factor(d).items():
                primary_variant.append(p**e)
        assert tuple(sorted(primary_variant)) != golden_primary

    def test_variant_agrees_on_torsion_free_rows(self):
        # On torsion-free links both conventions coincide, which is why
        # only torsion-rich golden data can discriminate.
        link = WeightedLink((1, 1, 1, 4, 6), 12)
        assert _torsion_proper_subset_variant(link) == ()
        assert link_homology(link).torsion == ()
