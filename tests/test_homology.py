"""Betti numbers and torsion against frozen golden data and oracles.

The golden rows below were machine-checked published values; they pin
the subset-sum conventions (empty product = 1, lcm of nothing = 1, and
the multiplicity sum running over ALL subsets of the index set, not just
proper ones).  test_proper_subset_variant_breaks_golden_data documents
why the last convention is forced.  The definitional 2^m and 3^m tables
live here as oracles.  TestMoebiusAgainstOracle holds the shipped tables
to them exactly, and with them the divisor method (c by threshold
counting over a coprime base, the Betti sum and k by one pass over gcd
classes); TestSubsetTables holds the 2^m subset method of small links to
them and to the divisor method.
TestMilnorDelta checks the torsion order against Milnor's Delta(1), a
theorem for every link, so it also covers the conjectural torsion path.
"""

import json
import math
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selink import (
    BPExponents,
    DomainError,
    HomologyGroup,
    InternalConsistencyError,
    OrlikTable,
    WeightedLink,
    as_link,
    betti_number,
    enumerate_bp,
    fractional_weights,
    link_homology,
    orlik_table,
    parse_presentation,
    torsion_orders,
)
from selink import homology
from selink.catalog import run_pipeline
from selink.homology import _coprime_base, _divisor_sums, _fraction_groups, _orlik_c
from conftest import (
    bp_exponents,
    coprime_triples,
    fermat_type_links,
    no_merge_family,
    primary_parts,
)


class TorsionDivisionError(InternalConsistencyError):
    """Non-exact division in the definitional c table of ``orlik_oracle``.

    The inductive gcd quotients are integers for every positive u, so a
    remainder here means a bug in the oracle.  The offending index subset
    is kept for diagnosis.
    """

    def __init__(self, subset, numerator, denominator):
        self.subset = tuple(subset)
        self.numerator = numerator
        self.denominator = denominator
        super().__init__(
            f"torsion table entry for subset {self.subset} is not integral: "
            f"{numerator} / {denominator} leaves a remainder"
        )


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
        assert primary_parts(group.torsion) == tuple(sorted(primary))
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
        assert group.betti == 60
        assert primary_parts(group.torsion) == primary_parts([4 * m] + [m] * 20)


def brieskorn_graph_sphere(exponents) -> bool:
    """Brieskorn's graph criterion for the link of a to be a homology sphere.

    The graph has a vertex per exponent and joins a_i and a_j when
    gcd(a_i, a_j) > 1.  The link is an integral homology sphere iff the
    graph has at least two isolated points, or exactly one and another
    component with an odd number of vertices whose pairwise gcds are all 2
    (Brieskorn, "Beispiele zur Differentialtopologie von Singularitäten",
    Invent. Math. 2, 1966).  No subset sum or gcd table is involved.
    """
    unseen = set(range(len(exponents)))
    components = []
    while unseen:
        stack, component = [unseen.pop()], []
        while stack:
            i = stack.pop()
            component.append(i)
            linked = {j for j in unseen if math.gcd(exponents[i], exponents[j]) > 1}
            unseen -= linked
            stack += linked
        components.append(component)
    isolated = sum(len(component) == 1 for component in components)
    return isolated >= 2 or isolated == 1 and any(
        len(component) > 1
        and len(component) % 2
        and all(math.gcd(exponents[i], exponents[j]) == 2 for i, j in combinations(component, 2))
        for component in components
    )


class TestHomotopySpheres:
    @pytest.mark.parametrize("exponents", [(2, 3, 5), (2, 3, 11), (2, 3, 7)])
    def test_integral_homology_spheres(self, exponents):
        group = link_homology(BPExponents(exponents))
        assert (group.betti, group.torsion) == (0, ())

    @pytest.mark.parametrize("length, max_exponent", [(3, 40), (4, 16), (5, 10), (6, 8)])
    def test_spheres_match_brieskorn_graph(self, length, max_exponent):
        # b = 0 and no torsion exactly where the graph criterion holds, for
        # every nondecreasing tuple; (4, 16) and (6, 8) have spheres with one
        # isolated point, and the four hold 3891 spheres in all.
        spheres, mismatches = 0, []
        for bp in enumerate_bp(length, max_exponent):
            group = link_homology(bp)
            sphere = group.betti == 0 and group.torsion == ()
            spheres += sphere
            if sphere != brieskorn_graph_sphere(bp.exponents):
                mismatches.append(bp.exponents)
        assert mismatches == []
        assert spheres > 0

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
        assert betti_number(bp.link) == bp_monodromy_fixed_count(exponents)

    @given(bp_exponents(max_len=4, max_exponent=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_eigenvalue_count_random(self, bp):
        assert betti_number(bp.link) == bp_monodromy_fixed_count(bp.exponents)


class TestOrlikTable:
    def test_fermat_cubic_c_values(self):
        # u = (3,3,3,3,3): c_empty = 3 and every larger gcd ratio collapses to
        # 1, so the empty mask is the only entry.
        table = orlik_table(WeightedLink((1, 1, 1, 1, 1), 3))
        assert [(mask, c) for mask, c, _ in table.entries] == [(0, 3)]

    def test_trivial_when_weights_equal_degree(self):
        # u = (1,...,1): every c is 1, no entry and no torsion.
        table = orlik_table(WeightedLink((2, 2, 2), 2))
        assert table.entries == ()
        assert torsion_orders(table) == ()

    @given(fermat_type_links(max_n=3, max_degree=30))
    @settings(max_examples=80, deadline=None)
    def test_full_mask_not_computed(self, link):
        table = orlik_table(link)
        full = (1 << table.size) - 1
        assert all(mask != full for mask, _, _ in table.entries)

    def test_golden_x6_torsion(self):
        table = orlik_table(WeightedLink((1, 1, 1, 1, 3), 6))
        assert torsion_orders(table) == (2,)

    @given(fermat_type_links(max_n=3, max_degree=30))
    @settings(max_examples=80, deadline=None)
    def test_k_parity_zeros(self, link):
        # Multiplicity vanishes on subsets where the epsilon factor is even.
        table = orlik_table(link)
        m = table.size
        for mask, _, k in table.entries:
            if (m - mask.bit_count()) % 2 == 0:
                assert k == 0

    @given(fermat_type_links(max_n=3, max_degree=30))
    @settings(max_examples=80, deadline=None)
    def test_c_values_are_positive_integers(self, link):
        table = orlik_table(link)
        masks = [mask for mask, _, _ in table.entries]
        assert masks == sorted(set(masks))
        for _, c, k in table.entries:
            assert type(c) is int and c > 1
            assert type(k) is Fraction


def pool_homology_texts() -> list[str]:
    pools = json.loads((Path(__file__).parents[1] / "bench/reference/pools.json").read_text())
    names = sorted(name for name in pools if name.startswith("homology_"))
    return [item["text"] for name in names for item in pools[name]]


class TestIntegerPath:
    """link_homology's integer counts against the chain of the public Fraction table.

    TestMoebiusAgainstOracle holds both to the definitional chain on the
    hypothesis links.
    """

    def test_census_links(self):
        for enum in ((3, 30), (4, 12), (5, 7)):
            for bp in enumerate_bp(*enum):
                assert link_homology(bp).torsion == torsion_orders(orlik_table(bp)), bp

    def test_pool_links(self):
        texts = pool_homology_texts()
        assert len(texts) == 91
        for text in texts:
            link = parse_presentation(text)
            assert link_homology(link).torsion == torsion_orders(orlik_table(link)), text

    def test_builds_no_fraction(self, monkeypatch):
        links = [*map(parse_presentation, pool_homology_texts()[::9]), *enumerate_bp(4, 8)]
        expected = [link_homology(link) for link in links]

        def refuse(*args, **kwargs):
            raise AssertionError("a Fraction was built")

        # homology imports Fraction only inside the functions that build
        # one, so patching the class catches every construction.
        monkeypatch.setattr(Fraction, "__new__", refuse)
        assert [link_homology(link) for link in links] == expected

    def test_chain_checks_divisibility(self):
        # A hand-built table whose c are not integers: d_2 = 3/2 does not
        # divide d_1 = 9/4.
        c = Fraction(3, 2)
        table = OrlikTable(3, ((0, c, Fraction(2)), (1, c, Fraction(1))))
        message = "^torsion chain factor 9/4 not divisible by 3/2$"
        with pytest.raises(InternalConsistencyError, match=message):
            torsion_orders(table)


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


class TestSizeRule:
    """No bound on n: the divisor pass is capped by its work instead."""

    @pytest.mark.parametrize(
        "a, m, betti, torsion",
        [(3, 5, 10, (3,)), (3, 41, 733007751850, (3,)), (4, 16, 10761681, ())],
    )
    def test_fermat_goldens(self, a, m, betti, torsion):
        group = link_homology(BPExponents((a,) * m))
        assert (group.betti, group.torsion) == (betti, torsion)

    def test_fermat_closed_form_up_to_the_weight_bound(self):
        # b((a,)^m) = ((a - 1)^m + (-1)^m (a - 1)) / a for every length
        # up to the weight bound.
        for a in range(2, 7):
            for m in range(3, 65):
                expected = ((a - 1) ** m + (-1) ** m * (a - 1)) // a
                assert link_homology(BPExponents((a,) * m)).betti == expected, (a, m)

    def test_no_merge_family_at_twelve_is_answered(self):
        bp = no_merge_family(12)
        assert betti_number(bp) == betti_oracle(*fractional_weights(bp.link))
        with pytest.raises(DomainError, match="^torsion chain of 1103619686400 invariant"):
            link_homology(bp)

    def test_no_merge_family_at_twenty_is_refused_at_once(self):
        bp = no_merge_family(20)
        message = f"the divisor pass needs more than {homology._MAX_DIVISOR_WORK} state sums"
        started = time.perf_counter()
        with pytest.raises(DomainError) as info:
            link_homology(bp)
        assert time.perf_counter() - started < 2.0  # the whole pass: 4.4 * 10^7 state sums
        assert str(info.value) == message
        assert f"homology: {message}" in run_pipeline(bp).error.split("; ")

    def test_work_cap_boundary(self, monkeypatch):
        # The Betti pass over the family at k holds 1, 2, ..., 2^k states
        # before its k + 1 indices: 2^(k+1) - 1 state sums in all.
        bp = no_merge_family(8)
        betti = betti_number(bp)
        monkeypatch.setattr(homology, "_MAX_DIVISOR_WORK", 2**9 - 1)
        assert betti_number(bp) == betti
        monkeypatch.setattr(homology, "_MAX_DIVISOR_WORK", 2**9 - 2)
        with pytest.raises(DomainError, match="divisor pass needs more than 510 state sums"):
            betti_number(bp)

    def test_doubled_no_merge_family_takes_one_step_per_group(self, monkeypatch):
        # Each exponent of the family at 8 taken twice: nine groups of two
        # equal fractions, so the Betti pass holds the family's 1, 2, ...,
        # 2^8 states before its nine groups, 2^9 - 1 state sums.  One index
        # at a time the pass forms more of them and is refused.
        bp = BPExponents(tuple(e for e in no_merge_family(8).exponents for _ in range(2)))
        u, v = fractional_weights(bp.link)
        expected = ungrouped_pass(u, v, torsion=False)
        monkeypatch.setattr(homology, "_MAX_DIVISOR_WORK", 2**9 - 1)
        assert homology._orlik_pass(bp.link, torsion=False) == expected
        assert betti_number(bp) == expected[2] // expected[3]
        with pytest.raises(DomainError, match="divisor pass needs more than 511 state sums"):
            ungrouped_pass(u, v, torsion=False)
        monkeypatch.setattr(homology, "_MAX_DIVISOR_WORK", 2**9 - 2)
        with pytest.raises(DomainError, match="divisor pass needs more than 510 state sums"):
            betti_number(bp)

    def test_pools_and_census_stay_far_below_the_cap(self, monkeypatch):
        # Every presentation of the benchmark pools passes with a cap of
        # 170 state sums, and every census link with 60.  Links of up to
        # _SUBSET_MAX_GROUPS groups take the subset tables in
        # link_homology, so the divisor pass runs on them directly as well.
        pools = json.loads((Path(__file__).parents[1] / "bench/reference/pools.json").read_text())
        texts = [
            item["text"]
            for items in pools.values()
            if isinstance(items, list)
            for item in items
            if "text" in item
        ]
        assert len(texts) == 235
        monkeypatch.setattr(homology, "_MAX_DIVISOR_WORK", 170)
        for text in texts:
            link_homology(parse_presentation(text))
            homology._gcd_class_pass(*groups_of(as_link(parse_presentation(text))))
        monkeypatch.setattr(homology, "_MAX_DIVISOR_WORK", 60)
        for enum in ((3, 30), (4, 12), (5, 7)):
            for bp in enumerate_bp(*enum):
                link_homology(bp)
                homology._gcd_class_pass(*groups_of(bp.link))

    def test_long_torsion_chain_answered(self):
        # bp=2,p,p,p has (p-1)(p-2) invariant factors, all 2.
        group = link_homology(BPExponents((2, 1009, 1009, 1009)))
        assert len(group.torsion) == 1008 * 1007 < homology._MAX_TORSION_FACTORS
        assert set(group.torsion) == {2}

    def test_torsion_chain_bound(self):
        # Refused from the largest multiplicity, before a list is built
        # (building it raised MemoryError).
        bp = BPExponents((2, 1000003, 1000003, 1000003))
        message = (
            "torsion chain of 1000003000002 invariant factors exceeds "
            "the safety bound of 2000000"
        )
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
    c, k = orlik_oracle(*fractional_weights(link), k_over_proper_subsets=True)
    return torsion_chain_oracle(c, k)


def assert_sparse_c_matches(c_entries, oracle_c):
    """Every oracle c > 1 is an entry with that value; every other proper c is 1."""
    full = len(oracle_c) - 1
    assert oracle_c[full] is None and full not in c_entries
    assert c_entries == {mask: c for mask, c in enumerate(oracle_c[:full]) if c != 1}
    assert all(type(c) is int and c > 1 for c in c_entries.values())


def assert_matches_oracle(link):
    """c, k, Betti and torsion bit-identical to the definitional versions."""
    u, v = fractional_weights(link)
    c, k = orlik_oracle(u, v)
    table = orlik_table(link)
    assert table.size == len(u)
    assert_sparse_c_matches({mask: cc for mask, cc, _ in table.entries}, c)
    for mask, _, kk in table.entries:
        assert type(kk) is Fraction and kk == k[mask]
    torsion = torsion_chain_oracle(c, k)
    assert torsion_orders(table) == torsion
    betti = betti_oracle(u, v)
    assert betti.denominator == 1 and betti >= 0
    assert betti_number(link) == betti
    group = link_homology(link)
    assert (group.betti, group.torsion) == (betti, torsion)


class TestMoebiusAgainstOracle:
    """The threshold count and the divisor pass against the definitional loops."""

    @given(bp_exponents(max_len=8, max_exponent=12))
    @settings(max_examples=60, deadline=None)
    def test_bp_tuples(self, bp):
        assert_matches_oracle(bp.link)

    @given(fermat_type_links(max_n=6))
    @settings(max_examples=80, deadline=None)
    def test_weighted_fermat_links(self, link):
        assert_matches_oracle(link)

    @pytest.mark.parametrize(
        "exponents", [(3, 3, 4, 5, 5, 6, 6, 7, 8, 8), (2, 2, 2, 3, 5, 5, 6, 7, 7, 7, 8)]
    )
    def test_long_tuples(self, exponents):
        assert_matches_oracle(BPExponents(exponents).link)

    @given(
        st.lists(
            st.one_of(st.integers(1, 720), st.integers(1, 2**64)), min_size=3, max_size=8
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_c_transform_is_integral_on_any_positive_u(self, u):
        # The threshold count in orlik_table's docstring is the Moebius
        # inverse of the complement gcds for any positive u, not only for
        # the numerators of a link.
        assert_sparse_c_matches(_orlik_c(tuple(u)), orlik_oracle(u, [1] * len(u))[0])

    @pytest.mark.parametrize(
        "u",
        [
            (6, 10, 15),
            (8, 12, 18),
            (30, 42, 70, 105),
            (4, 6, 9, 27, 36),
            ((2**61 - 1) ** 2, 2**61 - 1, (2**61 - 1) ** 3, 2 * (2**61 - 1)),
            ((2**61 - 1) ** 3, (2**61 - 1) ** 3, 3 * (2**61 - 1)),
        ],
    )
    def test_c_on_composites_sharing_factors(self, u):
        # No base element divides another, and none is prime here: the
        # refinement must still split 6, 10, 15 into 2, 3, 5.
        assert_sparse_c_matches(_orlik_c(u), orlik_oracle(u, [1] * len(u))[0])

    @given(
        st.lists(
            st.one_of(
                st.integers(1, 720),
                st.integers(1, 2**64),
                st.builds(math.prod, st.lists(st.sampled_from([2, 3, 6, 10, 15, 2**61 - 1]))),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_coprime_base_is_coprime_and_rebuilds_every_u(self, u):
        base = _coprime_base(u)
        assert all(b > 1 for b in base)
        for i, a in enumerate(base):
            for b in base[i + 1 :]:
                assert math.gcd(a, b) == 1
        for x in u:
            for b in base:
                while x % b == 0:
                    x //= b
            assert x == 1

    def test_base_that_does_not_rebuild_u_is_internal_error(self, monkeypatch):
        # The remainder check is a raise, not an assert, so it also holds
        # under python -O.
        monkeypatch.setattr(homology, "_coprime_base", lambda numbers: [2, 3])
        with pytest.raises(InternalConsistencyError, match="does not rebuild"):
            _orlik_c((6, 10, 15))

    def test_product_of_two_primes_near_1e12(self):
        # Refinement never factors: u_0 = p q is split by its gcds with p
        # and q alone, in microseconds, where trial division would not end.
        p, q = 999999999989, 1000000000039
        u = (p * q, p * q, p * p, q)
        started = time.perf_counter()
        c = _orlik_c(u)
        assert time.perf_counter() - started < 0.5
        assert sorted(_coprime_base(u)) == [p, q]
        assert c == {0b1000: p, 0b0100: q, 0b1011: p}
        assert_sparse_c_matches(c, orlik_oracle(u, [1] * 4)[0])
        # A link whose torsion is Z/p, with a Betti number near 10^36.
        link = BPExponents((p * q, p * q, p)).link
        assert link_homology(link).torsion == (p,)
        assert_matches_oracle(link)


def signed_sums_oracle(u, v, masks) -> list[Fraction]:
    """Sum of (-1)^{m-|J|} f(J) over every J, then over the J inside each mask."""
    m = len(u)
    prod_u, prod_v, lcm_u = _subset_data(u, v)
    terms = [
        (mask, (-1) ** (m - mask.bit_count()) * Fraction(prod_u[mask], prod_v[mask] * ell))
        for mask, ell in enumerate(lcm_u)
    ]
    return [sum(t for j, t in terms if j & s == j) for s in ((1 << m) - 1, *masks)]


def ungrouped_divisor_sums(u, v, masks=()) -> tuple[list[int], int]:
    """The divisor pass one index at a time, equal fractions or not.

    The oracle for the pass over groups: taking index i multiplies a
    state's sums by -g // v_i with g = gcd(key, u_i), into entry 0 and the
    masks that hold i.  It counts its state sums the same way and stops
    past ``homology._MAX_DIVISOR_WORK`` with the same DomainError.
    """
    denominator = math.prod(v) * math.lcm(*u)
    order = sorted(range(len(u)), key=u.__getitem__, reverse=True)
    ahead = [1]
    for i in reversed(order[1:]):
        ahead.append(math.lcm(ahead[-1], u[i]))
    width = len(masks) + 1
    states = {1: [denominator] * width}
    work = 0
    for i, rest in zip(order, reversed(ahead)):
        work += len(states) * width
        if work > homology._MAX_DIVISOR_WORK:
            raise DomainError(
                f"the divisor pass needs more than {homology._MAX_DIVISOR_WORK} state sums"
            )
        x, y = u[i], v[i]
        inside = [True] + [mask >> i & 1 for mask in masks]
        after: dict[int, list[int]] = {}
        for key, sums in states.items():
            g = math.gcd(key, x)
            taken = [-s * g // y if b else 0 for s, b in zip(sums, inside)]
            for into, part in ((math.gcd(key, rest), sums), (math.gcd(key // g * x, rest), taken)):
                held = after.get(into)
                after[into] = part if held is None else [p + q for p, q in zip(held, part)]
        states = after
    sums = states[1]
    return (sums if len(u) % 2 == 0 else [-s for s in sums]), denominator


def ungrouped_pass(u, v, torsion=True):
    """_orlik_pass's integers from _orlik_c and the divisor pass over indices."""
    m = len(u)
    c = _orlik_c(u) if torsion else {}
    odd = [mask for mask in sorted(c) if (m - mask.bit_count()) % 2]
    sums, denominator = ungrouped_divisor_sums(u, v, odd)
    return c, dict(zip(odd, sums[1:])), sums[0], denominator


FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


class TestDivisorPass:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_sums_match_subset_loop(self, data):
        # Any positive u and v, each index its own group, and any index
        # masks: every D * f(J) is an integer, so each step's division by
        # v_i is exact whether or not the data present a link.
        m = data.draw(st.integers(1, 7))
        numbers = st.one_of(st.integers(1, 720), st.integers(1, 2**64))
        u = tuple(data.draw(st.lists(numbers, min_size=m, max_size=m)))
        v = tuple(data.draw(st.lists(st.integers(1, 60), min_size=m, max_size=m)))
        masks = data.draw(st.lists(st.integers(0, (1 << m) - 1), max_size=6))
        sums, denominator = _divisor_sums(*singletons(u, v), masks)
        assert denominator == math.prod(v) * math.lcm(*u)
        assert all(type(s) is int for s in sums)
        assert [Fraction(s, denominator) for s in sums] == signed_sums_oracle(u, v, masks)
        assert ungrouped_divisor_sums(u, v, masks) == (sums, denominator)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_grouped_sums_match_subset_loop(self, data):
        # Fractions drawn from a few values repeat, so the pass runs over
        # groups of them; the masks select groups, and the oracle reads
        # them as the groups' indices.
        m = data.draw(st.integers(1, 7))
        numbers = st.one_of(st.integers(1, 720), st.integers(1, 2**64))
        u0 = data.draw(st.lists(numbers, min_size=1, max_size=3))
        v0 = data.draw(st.lists(st.integers(1, 60), min_size=1, max_size=3))
        u = tuple(data.draw(st.lists(st.sampled_from(u0), min_size=m, max_size=m)))
        v = tuple(data.draw(st.lists(st.sampled_from(v0), min_size=m, max_size=m)))
        x, d, a, odd, members = _fraction_groups(u, v)
        masks = data.draw(st.lists(st.integers(0, (1 << len(x)) - 1), max_size=6))
        index = [homology._index_mask(s, members) for s in masks]
        sums, denominator = _divisor_sums(x, d, a, odd, masks)
        assert denominator == math.prod(v) * math.lcm(*u)
        assert all(type(s) is int for s in sums)
        expected = signed_sums_oracle(u, v, index)
        assert [Fraction(s, denominator) for s in sums] == expected
        # Every index its own group, and the ungrouped oracle pass.
        assert _divisor_sums(*singletons(u, v), index) == (sums, denominator)
        assert ungrouped_divisor_sums(u, v, index) == (sums, denominator)

    def test_twenty_primes_then_their_product(self):
        # Taken in input order the primes keep 2^20 gcd classes apart until
        # their product comes.  By descending u the product comes first, and
        # two classes remain at every step.
        link = BPExponents(FIRST_PRIMES + (math.prod(FIRST_PRIMES),)).link
        started = time.perf_counter()
        betti = betti_number(link)
        assert time.perf_counter() - started < 0.5
        assert betti == math.prod(p - 1 for p in FIRST_PRIMES) == 71303543877206959718400000

    def test_twelve_primes_then_their_product(self):
        primes = FIRST_PRIMES[:12]
        assert_matches_oracle(BPExponents(primes + (math.prod(primes),)).link)


@st.composite
def large_weighted_links(draw):
    """Three to five weights of up to 1000 digits, sharing large factors.

    Each weight and the degree are products of a few of three factors of
    up to 333 digits, times a small cofactor, so the gcds and lcms of the
    numerators are large and varied; at least one weight does not divide
    the degree, so some v_i is not 1.
    """
    factors = draw(st.lists(st.integers(2, 10**333), min_size=3, max_size=3))

    def product():
        chosen = draw(st.lists(st.sampled_from(factors), max_size=3))
        return math.prod(chosen) * draw(st.integers(1, 12))

    m = draw(st.integers(3, homology._SUBSET_MAX_GROUPS))
    link = WeightedLink([product() for _ in range(m)], product())
    assume(any(v != 1 for v in fractional_weights(link)[1]))
    return link


def groups_of(link):
    """The group data x, d, a, odd that both methods take, for one link."""
    return _fraction_groups(*fractional_weights(link))[:4]


def singletons(u, v):
    """The group data of u and v with every index its own group."""
    m = len(u)
    return tuple(u), tuple(v), (-1,) * m, (1 << m) - 1


def both_methods(link):
    """The subset tables and the divisor pass on one link, with and without torsion."""
    groups = groups_of(link)
    tables = homology._subset_tables(*groups)
    assert tables == homology._gcd_class_pass(*groups)
    assert homology._subset_tables(*groups, False) == homology._gcd_class_pass(*groups, False)
    assert homology._subset_tables(*groups, False) == ({}, {}, *tables[2:])
    return tables


class TestSubsetTables:
    """The 2^m subset tables against the divisor pass and the definitional loops."""

    @pytest.mark.parametrize("enum", [(3, 30), (4, 12), (5, 7)])
    def test_methods_agree_on_census(self, enum):
        for bp in enumerate_bp(*enum):
            both_methods(bp.link)

    @given(large_weighted_links())
    @settings(max_examples=60, deadline=None)
    def test_methods_agree_on_large_weights(self, link):
        c, sums, total, denominator = both_methods(link)
        assert all(type(x) is int for x in (*c.values(), *sums.values(), total, denominator))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_against_oracle(self, data):
        # Any positive u and v, up to one index past the cutoff: the
        # tables hold for every m, the cutoff only picks the faster method.
        m = data.draw(st.integers(1, homology._SUBSET_MAX_GROUPS + 1))
        numbers = st.one_of(st.integers(1, 720), st.integers(1, 2**64))
        u = tuple(data.draw(st.lists(numbers, min_size=m, max_size=m)))
        v = tuple(data.draw(st.lists(st.integers(1, 60), min_size=m, max_size=m)))
        c, sums, total, denominator = homology._subset_tables(*singletons(u, v))
        oracle_c, oracle_k = orlik_oracle(u, v)
        assert_sparse_c_matches(c, oracle_c)
        assert denominator == math.prod(v) * math.lcm(*u)
        assert Fraction(total, denominator) == betti_oracle(u, v)
        assert sums == {
            mask: -oracle_k[mask] * denominator for mask in c if (m - mask.bit_count()) % 2
        }

    def test_remainder_is_internal_error(self, monkeypatch):
        # A gcd table that is no gcd table (gcd(6, 10) read as 4) leaves a
        # remainder in the Moebius passes; the check is a raise, so it also
        # holds under python -O.
        gcd = math.gcd
        fake = SimpleNamespace(
            prod=math.prod,
            lcm=math.lcm,
            gcd=lambda a, b: 4 if {a, b} == {6, 10} else gcd(a, b),
        )
        monkeypatch.setattr(homology, "math", fake)
        with pytest.raises(InternalConsistencyError, match="leave a remainder at mask"):
            homology._subset_tables(*singletons((6, 10, 15), (1, 1, 1)))

    def test_dispatch_boundary(self, monkeypatch):
        # The group count G picks the method, not the index count m: six
        # equal exponents (G = 1) and six distinct ones take the subset
        # tables, seven distinct ones the divisor pass, and ten exponents
        # take the tables with five or six distinct values and the pass
        # with seven, in all three public entry points.
        calls = []
        for name in ("_subset_tables", "_gcd_class_pass"):
            method = getattr(homology, name)

            def counted(*args, _name=name, _method=method):
                calls.append(_name)
                return _method(*args)

            monkeypatch.setattr(homology, name, counted)
        cases = (
            ((6,) * 6, "_subset_tables"),
            ((2, 3, 4, 5, 6, 7), "_subset_tables"),
            ((2, 3, 4, 5, 6, 7, 8), "_gcd_class_pass"),
            ((2, 2, 3, 3, 4, 4, 5, 5, 6, 6), "_subset_tables"),
            ((2, 2, 3, 3, 4, 4, 5, 5, 6, 7), "_subset_tables"),
            ((2, 2, 3, 3, 4, 4, 5, 6, 7, 8), "_gcd_class_pass"),
        )
        assert homology._SUBSET_MAX_GROUPS == 6
        for exponents, method in cases:
            bp = BPExponents(exponents)
            for entry in (betti_number, orlik_table, link_homology):
                calls.clear()
                entry(bp)
                assert calls == [method], (exponents, entry)


@st.composite
def repeated_fraction_links(draw, max_len=12):
    """Links of 6 to max_len indices whose fractions u_i/v_i repeat.

    Brieskorn-Pham exponents drawn from one to seven values in 2..12, or a
    Thom-Sebastiani sum of blocks drawn from one to four kinds: Fermat
    terms z^a and chain pairs z_0^a + z_0 z_1^b, whose second weight
    d (a - 1) / (a b) leaves v != 1 for most a and b.  Each block has an
    isolated singularity, so every (w, d) here presents a link.
    """
    m = draw(st.integers(6, max_len))
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(2, 12), min_size=1, max_size=7, unique=True))
        return BPExponents(tuple(draw(st.sampled_from(values)) for _ in range(m))).link
    kinds = st.tuples(st.integers(2, 9), st.integers(0, 4))  # b = 0: the Fermat term
    pool = draw(st.lists(kinds, min_size=1, max_size=4, unique=True))
    blocks, size = [], 0
    while size < m:
        a, b = draw(st.sampled_from(pool))
        if size + 2 > m:
            b = 0  # no room for a pair: its first term alone
        blocks.append((a, b))
        size += 1 + (b > 0)
    degree = math.lcm(*(a * max(b, 1) for a, b in blocks))
    weights = []
    for a, b in blocks:
        weights.append(degree // a)
        if b:
            weights.append(degree * (a - 1) // (a * b))
    link = WeightedLink(weights, degree)
    assume(len(set(zip(*fractional_weights(link)))) < m)
    return link


def ungrouped_table(link) -> tuple[OrlikTable, int]:
    """orlik_table and the Betti number from ``ungrouped_pass``."""
    u, v = fractional_weights(link)
    c, sums, total, denominator = ungrouped_pass(u, v)
    entries = tuple(
        (mask, c[mask], Fraction(-sums.get(mask, 0), denominator)) for mask in sorted(c)
    )
    return OrlikTable(len(u), entries), total // denominator


def assert_matches_ungrouped(link):
    """orlik_table, betti_number and link_homology against ``ungrouped_table``.

    A torsion chain past the safety bound is refused by both.
    """
    table, betti = ungrouped_table(link)
    assert orlik_table(link) == table
    assert betti_number(link) == betti
    try:
        torsion = torsion_orders(table)
    except DomainError as error:
        with pytest.raises(DomainError) as info:
            link_homology(link)
        assert str(info.value) == str(error)
    else:
        group = link_homology(link)
        assert (group.betti, group.torsion) == (betti, torsion)


class TestGroupedLinks:
    """The passes over groups of equal fractions against oracles over indices."""

    @given(repeated_fraction_links())
    @settings(max_examples=120, deadline=None)
    def test_against_ungrouped_pass(self, link):
        u, v = fractional_weights(link)
        for torsion in (True, False):
            assert homology._orlik_pass(link, torsion) == ungrouped_pass(u, v, torsion)
        assert_matches_ungrouped(link)

    @given(repeated_fraction_links(max_len=8))
    @settings(max_examples=60, deadline=None)
    def test_against_definitional_tables(self, link):
        assert_matches_oracle(link)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_weights_against_ungrouped_pass(self, data):
        # Weights drawn from a few values up to the degree need not present
        # a link, but the integer sums are defined all the same.
        degree = data.draw(st.integers(2, 10**6))
        values = data.draw(st.lists(st.integers(1, degree), min_size=1, max_size=7))
        m = data.draw(st.integers(6, 12))
        link = WeightedLink([data.draw(st.sampled_from(values)) for _ in range(m)], degree)
        u, v = fractional_weights(link)
        for torsion in (True, False):
            assert homology._orlik_pass(link, torsion) == ungrouped_pass(u, v, torsion)

    @pytest.mark.parametrize(
        "weights, degree",
        [
            # Three chain pairs z_0^4 + z_0 z_1^2 and three z^6: u/v = 4/1, 8/3, 6/1.
            ((6, 9, 6, 9, 6, 9, 4, 4, 4), 24),
            # bp=2,2,2,3,6,8,9,10: six groups, the most the tables take.
            ((180, 180, 180, 120, 60, 45, 40, 36), 360),
            # Chain pairs (a, b) = (4, 2), (5, 2), (5, 3), (6, 4): u/v = 4, 8/3,
            # 5, 5/2, 5, 15/4, 6, 24/5, seven groups, so the divisor pass.
            ((30, 45, 24, 48, 24, 32, 20, 25), 120),
        ],
    )
    def test_examples(self, weights, degree):
        link = WeightedLink(weights, degree)
        assert_matches_oracle(link)
        assert_matches_ungrouped(link)


def lcm_class_coefficients(u, v) -> dict[int, Fraction]:
    """c_L, the signed terms f(J) summed over the J with lcm(u_J) = L.

    Milnor and Orlik write the divisor of the characteristic polynomial as
    prod_i (Lambda_{u_i} / v_i - 1) with Lambda_a Lambda_b =
    gcd(a, b) Lambda_lcm(a, b), so Delta(t) = prod_L (t^L - 1)^{c_L}.
    f(J) depends on J only through how many indices of each distinct pair
    (u_i, v_i) it holds, so the J are counted by binomials over those
    counts: a link of many equal weights has few terms.
    """
    m = len(u)
    pairs = Counter(zip(u, v))
    coefficients: dict[int, Fraction] = {}
    for counts in product(*(range(k + 1) for k in pairs.values())):
        taken = [(x, y, c) for (x, y), c in zip(pairs, counts) if c]
        ell = math.lcm(*(x for x, _, _ in taken))
        subsets = math.prod(math.comb(k, c) for k, c in zip(pairs.values(), counts))
        term = Fraction(math.prod(x**c for x, _, c in taken), math.prod(y**c for _, y, c in taken))
        sign = (-1) ** (m - sum(counts))
        coefficients[ell] = coefficients.get(ell, 0) + sign * subsets * term / ell
    return coefficients


def checked_sphere_applicability(link) -> str | None:
    """The applicability flag of a rational homology sphere, else None.

    When b = sum of c_L = 0, Delta(t) = prod ((t^L - 1) / (t - 1))^{c_L},
    whose value at 1 is prod L^{c_L}; by Milnor's theorem its absolute
    value is the order of H_{n-1}, the product of the invariant factors.
    That is checked here, with every c_L an integer summing to b.
    """
    coefficients = lcm_class_coefficients(*fractional_weights(link))
    assert all(c.denominator == 1 for c in coefficients.values())
    group = link_homology(link)
    assert sum(coefficients.values()) == group.betti
    if group.betti:
        return None
    delta_at_one = math.prod(Fraction(ell) ** int(c) for ell, c in coefficients.items())
    assert delta_at_one == math.prod(group.torsion)
    return group.applicability


class TestMilnorDelta:
    """Torsion order against Milnor's Delta(1), not against Orlik's formula."""

    def test_bp_census(self):
        flags = Counter(
            checked_sphere_applicability(bp.link)
            for enum in ((3, 30), (4, 12))
            for bp in enumerate_bp(*enum)
        )
        assert flags == {"proven": 3887, None: 1609}

    def test_divisor_weight_links(self):
        # Weights dividing d <= 24 with no common factor, m = 3..6.  With
        # m >= 5 and no source the torsion is Orlik's conjecture, so this
        # checks the conjectural path against a theorem.
        flags = Counter()
        for d in range(2, 25):
            divisors = [w for w in range(1, d) if d % w == 0]
            for m in range(3, 7):
                for weights in combinations_with_replacement(divisors, m):
                    if math.gcd(d, *weights) == 1:
                        flags[checked_sphere_applicability(WeightedLink(weights, d))] += 1
        assert flags[None] > 0
        assert (flags["proven"], flags["conjectural"]) == (71, 118)

    def test_long_links_of_equal_exponents(self):
        # Sigma(5, 2, ..., 2) with 41 twos is a homology sphere (conjectural
        # only because the weights come without their bp source), and
        # b((3,)^41) is the sum of the c_L.
        sphere = BPExponents((5,) + (2,) * 41).link
        assert checked_sphere_applicability(sphere) == "conjectural"
        assert checked_sphere_applicability(BPExponents((3,) * 41).link) is None


class TestSumConvention:
    def test_proper_subset_variant_breaks_golden_data(self):
        # The branched quartic family (m=4) distinguishes the conventions:
        # including the subset itself in the multiplicity sum reproduces
        # Z_16 + (Z_4)^20; omitting it does not.
        link = BPExponents((16, 4, 4, 4, 4)).link
        golden_primary = tuple(sorted([16] + [4] * 20))

        group = link_homology(link)
        assert primary_parts(group.torsion) == golden_primary

        variant = _torsion_proper_subset_variant(link)
        assert primary_parts(variant) != golden_primary

    def test_variant_agrees_on_torsion_free_rows(self):
        # On torsion-free links both conventions coincide, which is why
        # only torsion-rich golden data can discriminate.
        link = WeightedLink((1, 1, 1, 4, 6), 12)
        assert _torsion_proper_subset_variant(link) == ()
        assert link_homology(link).torsion == ()
