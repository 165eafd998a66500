"""Integral homology of links from their fractional weights.

The link of an isolated weighted homogeneous singularity in C^{n+1} is an
(n-2)-connected (2n-1)-manifold, so all of its interesting reduced homology
sits in degree n-1:

    H_{n-1}(L; Z) = Z^b  (+)  Z/d_1 (+) ... (+) Z/d_r,   d_{j+1} | d_j.

Both pieces are computed from the reduced fractions u_i/v_i = d/w_i alone,
indexed by bitmasks over the m = n+1 indices (bit i selects index i).  Each
subset J contributes the term

    f(J) = (prod u_j) / ((prod v_j) * lcm(u_j : j in J)),    j in J,

with empty product 1 and lcm() = 1.  Over the common denominator
D = (prod of all v_i) * lcm(all u_i) every term is an integer D * f(J), so
each sum below is an integer sum with a single division by D at the end.

The free rank b is the alternating sum of (-1)^{m-|J|} f(J) over all 2^m
subsets, so the empty subset contributes (-1)^{n+1}.  The sum is an
integer >= 0 for every genuine link; anything else aborts as an internal
inconsistency.

Torsion comes from Orlik's inductive gcd table.  For each proper subset S
of indices (the full set is never needed) define

    c_S = gcd(u_j : j not in S) / prod(c_J : J a proper subset of S),

where every division must be exact, and a rational multiplicity

    k_S = eps(n - s + 1) * sum over ALL subsets J of S, |J| = t, of
          (-1)^{s-t} * f(J),

with eps(m) = 1 for odd m and 0 for even m, so k_() = eps(n+1).  Note the
multiplicity sum runs over the full power set of S, including J = S itself;
restricting it to proper subsets is a plausible misreading that breaks
machine-checked examples (see tests).  Then with r = floor(max k),

    d_j = prod(c_S : k_S >= j),    j = 1, ..., r,

after which trivial factors are pruned.  The d_j are the invariant factors
of the torsion subgroup, its canonical form: two links have isomorphic
torsion exactly when their chains are equal, and no prime factorization is
needed to compare, halve or name a group.

Read literally, both tables pair every S with every subset of S: 3^m
pairs.  Neither is computed that way.  f(J) depends on J only through
prod u_j/v_j and lcm(u_J): Milnor and Orlik ("Isolated singularities
defined by weighted homogeneous polynomials", Topology 9, 1970) write the
divisor of the characteristic polynomial as prod_i (Lambda_{u_i}/v_i - 1)
with Lambda_a Lambda_b = gcd(a, b) Lambda_lcm(a, b).  So
Lambda_a^k = a^(k-1) Lambda_a, and the k indices of a group with equal
fractions u_i/v_i = x/y enter as one factor

    (Lambda_x/y - 1)^k = (-1)^k (1 + a Lambda_x / y^k),
    a = ((y - x)^k - y^k) / x,

with a = -1 at k = 1.  The Orlik pass (``_orlik_pass``) works over these
G groups (``_fraction_groups``) and picks one of two exact methods by G.
Every S with c_S > 1 is a union of groups (see ``_orlik_c``), so the
results over groups are spread back to index masks at the end.

For G <= ``_SUBSET_MAX_GROUPS`` it builds tables over all 2^G sets of
groups (``_subset_tables``): the terms D * f summed per set of groups
taken and the gcds by doubling over the groups, c as the multiplicative
Moebius inverse of the complement gcds, and k_S as sums over the submasks
of S.  A link of at most ``_SUBSET_MAX_GROUPS`` indices takes the
tables without being grouped: each index is its own group.

For larger G neither table is formed.  One pass over the groups, keeping
per gcd class the signed sums over all J and over the J inside each
needed S, gives the Betti sum and every k_S at once (``_divisor_sums``).
The definition of c says that the product of c_J over all J in S is
gcd(u_j : j not in S), and that Moebius inverse has a closed form (see
``_orlik_c``): over a pairwise coprime base of the u, found by gcd
refinement without factoring, c_S collects one base element b per
threshold t with S = {j : v_b(u_j) < t}.  So only the few masks with
c_S > 1 are ever formed, and k_S is summed for those with eps = 1 alone.

Either way link_homology makes one pass per link, and the torsion chain
then costs O(F log F + r) for the F masks with c_S > 1.  The definitional
3^m loops, and the divisor pass over single indices, live on in the tests
as oracles.

link_homology works in integers throughout: the Orlik pass gives
-D * k_S, so floor(k_S) = (-D k_S) // D, and the chain is built from those
counts.  Fractions appear only in the public ``orlik_table``, whose k_S
are built from the same integer sums, and in the text of a Betti sum that
is not an integer; on the rest of a catalog record's path only the
existence margins are Fractions.  ``orlik_table`` and ``_betti``'s error
path import ``Fraction`` where they build one, so ``selink homology``
loads neither ``fractions`` nor ``decimal``.

This torsion formula is a theorem for n = 2 and n = 3, for Brieskorn-Pham
polynomials, and for iterated chain polynomials
z_0^{a_0} + z_0 z_1^{a_1} + ... + z_{n-1} z_n^{a_n}; in general it is
Orlik's conjecture, and results carry an applicability flag saying which
situation we are in.
"""

from __future__ import annotations

import math
import operator
from itertools import groupby

from . import _EXPORTS, _Value
from .errors import DomainError, InternalConsistencyError
from .links import (
    PROVEN_SOURCES,
    BPExponents,
    WeightedLink,
    as_link,
    fractional_weights,
)

__all__ = list(_EXPORTS["homology"])

# Invariant factors a torsion chain may hold.  Their number is the largest
# multiplicity, which grows like the square of the exponents (bp=2,p,p,p
# has (p-1)(p-2) of them), so it is refused before any list is built.
_MAX_TORSION_FACTORS = 2 * 10**6
# Work of the divisor pass, in state sums: the states held before each
# group times their 1 + F sums.  Pool links need at most 108 (170 one
# index at a time); numerators whose gcd classes never merge double the
# states at every group and reach it.
_MAX_DIVISOR_WORK = 5 * 10**5
# Group counts up to which the Orlik pass builds its 2^G subset tables
# instead of running the divisor pass.  Timed per Brieskorn-Pham link with
# G distinct exponents, the two methods alternating, best of 11 rounds
# (CPython 3.11, 2-core x86-64 VM), at m = G and at m = 9..12: the tables
# took 12-14 us against 32-37 us for the pass at G = 4, 23-26 against
# 46-53 at G = 5 and 44-51 against 56-70 at G = 6 (60 against 80 us on
# average over the 34 benchmark pool links with G = 6, and even on chains
# such as 2, 4, ..., 64); at G = 7 the pass won, 71-124 against 86-135 us.
_SUBSET_MAX_GROUPS = 6


def _fraction_groups(u: tuple[int, ...], v: tuple[int, ...]):
    """The distinct fractions x/y among the u_i/v_i: x, d, a, odd, members.

    Per group of k indices with u_i/v_i = x/y: its numerator x, the
    divisor d = y^k and the coefficient a = ((y - x)^k - y^k) / x of its
    factor (see ``_divisor_sums``), and the mask of its indices in
    members; odd is the mask of the groups with odd k.  Groups come in the
    order of their first index.
    """
    members: dict[tuple[int, int], int] = {}
    for i, pair in enumerate(zip(u, v)):
        members[pair] = members.get(pair, 0) | 1 << i
    x, d, a, odd = [], [], [], 0
    for j, ((numerator, y), mask) in enumerate(members.items()):
        k = mask.bit_count()
        power = y**k
        x.append(numerator)
        d.append(power)
        a.append(((y - numerator) ** k - power) // numerator)
        odd |= (k & 1) << j
    return x, d, a, odd, tuple(members.values())


def _index_mask(mask: int, members: tuple[int, ...]) -> int:
    """The indices of the groups in mask: the union of their member masks."""
    index = 0
    for j, part in enumerate(members):
        if mask >> j & 1:
            index |= part
    return index


def _divisor_sums(x, d, a, odd: int, masks) -> tuple[list[int], int]:
    """D times the signed sums of (-1)^{m-|J|} f(J), and D, over groups.

    The groups are those of ``_fraction_groups``.  Entry 0 sums over every
    subset J of the indices, entry e + 1 over the J inside the union of
    the groups in masks[e].  The divisor is prod_i (Lambda_{u_i}/v_i - 1)
    with Lambda_a Lambda_b = gcd(a, b) Lambda_lcm(a, b), so
    Lambda_a^k = a^(k-1) Lambda_a and a group of k equal fractions x/y is
    one factor (Lambda_x/y - 1)^k = (-1)^k (1 + a Lambda_x / y^k) with
    a = ((y - x)^k - y^k) / x.  Taking the group into J multiplies a
    term by g a / y^k with g = gcd(lcm(u_J), x); later factors need
    lcm(u_J) only up to its gcd with the numerators still to come, so the
    J merge into states keyed by that gcd.  D still holds y^k when the
    group comes, so each step's division is exact term by term.  Taking it
    multiplies a state's sums into entry 0 and the masks that hold the
    group; leaving it out keeps them, and (-1)^m comes at the end.  With
    k = 1 the factor is -g / v_i, one index at a time.  Groups go by
    descending x, which keeps the keys few; at the end every key is 1.
    Past ``_MAX_DIVISOR_WORK`` state sums the pass stops with a
    DomainError.
    """
    denominator = math.prod(d) * math.lcm(*x)
    order = sorted(range(len(x)), key=x.__getitem__, reverse=True)
    ahead = [1]  # lcm of the numerators after each group in order, built backwards
    for j in reversed(order[1:]):
        ahead.append(math.lcm(ahead[-1], x[j]))
    width = len(masks) + 1
    states = {1: [denominator] * width}
    work = 0
    for j, rest in zip(order, reversed(ahead)):
        work += len(states) * width
        if work > _MAX_DIVISOR_WORK:
            raise DomainError(f"the divisor pass needs more than {_MAX_DIVISOR_WORK} state sums")
        numerator, divisor, coefficient = x[j], d[j], a[j]
        inside = [True] + [mask >> j & 1 for mask in masks]
        after: dict[int, list[int]] = {}
        for key, sums in states.items():
            g = math.gcd(key, numerator)
            factor = g * coefficient
            taken = [s * factor // divisor if b else 0 for s, b in zip(sums, inside)]
            for into, part in (
                (math.gcd(key, rest), sums),
                (math.gcd(key // g * numerator, rest), taken),
            ):
                held = after.get(into)
                after[into] = part if held is None else list(map(operator.add, held, part))
        states = after
    sums = states[1]
    return (sums if odd.bit_count() % 2 == 0 else [-s for s in sums]), denominator


def _coprime_base(numbers) -> list[int]:
    """A pairwise coprime base of the numbers > 1, by gcd refinement alone.

    Bach, Driscoll & Shallit, "Factor refinement" (1993).  A number x that
    shares a factor g > 1 with a base element b takes b out of the base and
    puts g, b / g and x / g back on the list still to place; a number
    coprime to the whole base joins it.  Each split divides the product of
    the base and the list by g, so the loop ends, and every number is then
    a product of base elements.  No number is ever factored into primes.
    """
    base: list[int] = []
    todo = [x for x in numbers if x > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                base[i] = base[-1]
                base.pop()
                todo += [y for y in (g, b // g, x // g) if y > 1]
                break
        else:
            base.append(x)
    return base


def _orlik_c(u: tuple[int, ...]) -> dict[int, int]:
    """c_S per mask S with c_S > 1; every other proper mask has c_S = 1.

    c_S has a closed form, which ``_gcd_class_pass`` uses past
    ``_SUBSET_MAX_GROUPS`` groups.  Let b be an element of a pairwise
    coprime base of the u (``_coprime_base``) and e_j = v_b(u_j).  The
    complement gcd has b-exponent g(S) = min(e_j : j not in S), which is the
    number of thresholds t >= 1 whose set T_t = {j : e_j < t} lies inside S.
    The product of c_J over the subsets J of S is that gcd, so the
    b-exponent of c_J, the Moebius inverse of g, counts the thresholds with
    T_t = J.  For t = 1..max e the set T_t misses an index of largest e, so
    it is a proper mask; every larger t gives the full mask, which is never
    needed.  Hence c_S is the product of b over the pairs (b, t) with
    T_t = S, a positive integer, and it is 1 on every mask no threshold hits.
    Indices with equal u_j have equal e_j, so every T_t is a union of them,
    and of the groups of equal fractions a fortiori.

    The thresholds between two consecutive values of e share one S, so
    they enter as one power of b.  A base that does not rebuild every u_j
    is an InternalConsistencyError.
    """
    c: dict[int, int] = {}
    rest = list(u)
    for b in _coprime_base(u):
        levels: dict[int, int] = {}  # valuation -> mask of the j that have it
        for j, x in enumerate(rest):
            e = 0
            while x % b == 0:
                x //= b
                e += 1
            rest[j] = x
            levels[e] = levels.get(e, 0) | 1 << j
        below = previous = 0  # the j with e_j < t, for t = previous + 1 .. e
        for e in sorted(levels):
            if e:
                c[below] = c.get(below, 1) * b ** (e - previous)
            below |= levels[e]
            previous = e
    if any(x != 1 for x in rest):
        raise InternalConsistencyError(
            f"coprime base does not rebuild the numerators {u}: remainders {rest}"
        )
    return c


def _betti(link: WeightedLink, total: int, denominator: int) -> int:
    """The alternating subset sum D * b of ``_orlik_pass``, checked and divided."""
    if total < 0 or total % denominator != 0:
        from fractions import Fraction

        raise InternalConsistencyError(
            f"Betti sum for {link.presentation()} is {Fraction(total, denominator)}, "
            "expected a nonnegative integer"
        )
    return total // denominator


def betti_number(link: WeightedLink | BPExponents) -> int:
    """Free rank of H_{n-1}(L; Z) via the alternating subset sum."""
    link = as_link(link)
    _, _, total, denominator = _orlik_pass(link, torsion=False)
    return _betti(link, total, denominator)


class OrlikTable(_Value):
    """The masks with c_S > 1, each with its c_S and rational multiplicity k_S.

    Bit i of a mask selects index i.  Every proper mask left out has
    c_S = 1, so it can never enter a torsion product; the full index set is
    never an entry (its multiplicity vanishes identically).
    """

    __match_args__ = ("size", "entries")
    size: int  # number of indices, n+1
    entries: tuple  # (mask, c, k) with c > 1 an int and k a Fraction, by mask

    def __init__(self, size, entries):
        fields = self.__dict__
        fields["size"] = size
        fields["entries"] = entries


def _subset_tables(x, d, a, odd: int, torsion: bool = True):
    """``_orlik_pass`` from tables over all 2^G sets of groups, for few groups.

    The groups are those of ``_fraction_groups``; masks here select
    groups.  The table is doubled once per group: each set T gains
    T + {group}, whose lcm is lcm(x_T) / g * x and whose signed term is
    the term of T times g a / d with g = gcd(lcm(x_T), x), an exact
    division (see ``_divisor_sums``).  The gcd of the x over T comes
    along, so the gcd over the complement of T sits at the mask full - T
    (0 at the empty complement, the full mask, which is never needed).
    One pass per bit divides each mask holding it by the mask without it;
    after all G the product of c over the subsets of T is the complement
    gcd, and a remainder is an InternalConsistencyError.  m - |S| is odd
    for the indices S of T when an odd number of groups of odd size lie
    outside T.

    These passes, not ``_orlik_c``, give c here because they are faster on
    the census: per link, tables included, 7 against 12 us at m = 3 and 11
    against 16 us at m = 4.  At m = 5 the two are even, except on Fermat
    links, where ``_orlik_c`` has one base element (15 against 19 us).
    """
    denominator = math.prod(d) * math.lcm(*x)
    # (lcm, term, gcd) per mask
    table = [(1, -denominator if odd.bit_count() % 2 else denominator, 0)]
    for numerator, divisor, coefficient in zip(x, d, a):
        taken = []
        for ell, term, h in table:
            g = math.gcd(ell, numerator)
            taken.append(
                (ell // g * numerator, term * (g * coefficient) // divisor, math.gcd(h, numerator))
            )
        table += taken
    _, terms, gcds = zip(*table)
    total = sum(terms)
    if not torsion:
        return {}, {}, total, denominator
    c = list(reversed(gcds))
    full = len(c) - 1
    for i in range(len(x)):
        bit = 1 << i
        for mask in range(bit, full):
            if mask & bit and c[mask ^ bit] != 1:
                c[mask], remainder = divmod(c[mask], c[mask ^ bit])
                if remainder:
                    raise InternalConsistencyError(
                        f"complement gcds of {x} leave a remainder at mask {mask}"
                    )
    entries, sums = {}, {}
    for mask in range(full):
        if c[mask] > 1:
            entries[mask] = c[mask]
            if (odd & ~mask).bit_count() % 2:
                part = 0
                sub = mask
                while True:  # every submask of mask, down to the empty one
                    part += terms[sub]
                    if not sub:
                        break
                    sub = (sub - 1) & mask
                sums[mask] = part
    return entries, sums, total, denominator


def _gcd_class_pass(x, d, a, odd: int, torsion: bool = True):
    """``_orlik_pass`` from a coprime base and one divisor pass, for any G."""
    c = _orlik_c(x) if torsion else {}
    masks = [mask for mask in sorted(c) if (odd & ~mask).bit_count() % 2]
    sums, denominator = _divisor_sums(x, d, a, odd, masks)
    return c, dict(zip(masks, sums[1:])), sums[0], denominator


def _orlik_pass(
    link: WeightedLink, torsion: bool = True
) -> tuple[dict[int, int], dict[int, int], int, int]:
    """c_S per mask with c_S > 1, -D k_S per odd mask, the Betti sum D b, and D.

    All integers, with masks over the indices.  k_S is summed only where
    eps(n - s + 1) = 1, i.e. m - s is odd; there (-1)^{s-|J|} =
    -(-1)^{m-|J|}, so -D k_S is the sum of the signed terms
    D (-1)^{m-|J|} f(J) over the J inside S.  Every other k_S is 0.

    Both methods run over the groups of equal fractions u_i/v_i
    (``_fraction_groups``): up to ``_SUBSET_MAX_GROUPS`` groups the subset
    tables are the faster method, above it the divisor pass; both give
    the same integers.  Every mask with c_S > 1 is a union of groups (see
    ``_orlik_c``), so their results over groups are those over indices
    once each group mask is spread to its indices.  A link of at most
    ``_SUBSET_MAX_GROUPS`` indices has no more groups than that, so it
    takes the tables with every index its own group, without being
    grouped.  Without ``torsion`` only the Betti sum and D are formed.
    """
    u, v = fractional_weights(link)
    m = len(u)
    if m <= _SUBSET_MAX_GROUPS:
        return _subset_tables(u, v, (-1,) * m, (1 << m) - 1, torsion)
    x, d, a, odd, members = _fraction_groups(u, v)
    method = _subset_tables if len(x) <= _SUBSET_MAX_GROUPS else _gcd_class_pass
    c, sums, total, denominator = method(x, d, a, odd, torsion)
    index = {mask: _index_mask(mask, members) for mask in c}
    c = {index[mask]: value for mask, value in c.items()}
    sums = {index[mask]: value for mask, value in sums.items()}
    return c, sums, total, denominator


def orlik_table(link: WeightedLink | BPExponents) -> OrlikTable:
    """The masks with c_S > 1 and their c and k, from one Orlik pass.

    c_S has a closed form (see ``_orlik_c``).  The k_S are Fractions here,
    built from the integer sums of ``_orlik_pass``; link_homology reads
    the same sums without them.
    """
    from fractions import Fraction

    link = as_link(link)
    c, sums, _, denominator = _orlik_pass(link)
    entries = tuple(
        (mask, c[mask], Fraction(-sums.get(mask, 0), denominator)) for mask in sorted(c)
    )
    return OrlikTable(size=len(link.weights), entries=entries)


def _torsion_chain(factors: list[tuple[int, int]]) -> tuple[int, ...]:
    """d_1, d_2, ... from the pairs (floor(k_S), c_S) with k_S >= 1.

    Each c (> 1) divides d_j exactly for the integers j = 1..floor(k), so
    the chain stops at the largest count, and a chain longer than
    ``_MAX_TORSION_FACTORS`` is refused as a DomainError before it is
    built.  Sweeping j from the largest count down with a running product,
    d_j is d_{j+1} times the c whose count is exactly j: d stays the same
    between consecutive counts, and it is > 1 from the top count on.  Equal
    neighbours divide each other, so divisibility is checked once per
    distinct value.
    """
    factors.sort(reverse=True)
    j = factors[0][0] if factors else 0  # the length of the chain
    if j > _MAX_TORSION_FACTORS:
        raise DomainError(
            f"torsion chain of {j} invariant factors exceeds the "
            f"safety bound of {_MAX_TORSION_FACTORS}"
        )
    orders = []  # d_r, d_{r-1}, ..., reversed below
    d = 1
    for count, c in factors + [(0, 1)]:  # the last pair adds the run of d_1
        if count < j:
            if orders and d % orders[-1]:
                raise InternalConsistencyError(
                    f"torsion chain factor {d} not divisible by {orders[-1]}"
                )
            orders += [d] * (j - count)
        d *= c
        j = count
    orders.reverse()
    return tuple(orders)


def torsion_orders(table: OrlikTable) -> tuple[int, ...]:
    """Divisibility chain d_1, d_2, ... (descending, trivial factors pruned).

    These are the invariant factors of the torsion, its canonical form.  A
    chain longer than ``_MAX_TORSION_FACTORS`` is refused as a DomainError
    before it is built.  The table's Fractions k enter only as the integer
    counts floor(k) of those with k >= 1.
    """
    return _torsion_chain([
        (k.numerator // k.denominator, c)
        for _, c, k in table.entries
        if k.numerator >= k.denominator
    ])


class HomologyGroup(_Value):
    """H_{n-1}(L; Z) = Z^betti (+) sum of Z/d_j, with d_{j+1} | d_j."""

    __match_args__ = ("betti", "torsion", "degree", "applicability")
    betti: int
    torsion: tuple[int, ...]
    degree: int  # homology degree n-1
    applicability: str  # "proven" | "conjectural"

    def __init__(self, betti, torsion, degree, applicability):
        if betti < 0:
            raise InternalConsistencyError(f"negative Betti number {betti}")
        # Equal neighbours divide each other once they are >= 2, so the
        # pairs are checked on runs: a long chain has few distinct values.
        # A chain of fewer than two factors has no pair.
        if len(torsion) > 1:
            runs = torsion[:1] + tuple(k for k, _ in groupby(torsion[1:]))
            tail = runs[1:]
            if min(tail) < 2 or any(map(operator.mod, runs, tail)):
                raise InternalConsistencyError(
                    f"torsion {torsion} is not a pruned divisibility chain"
                )
        if torsion and torsion[-1] < 2:
            raise InternalConsistencyError(f"trivial torsion factor in {torsion}")
        fields = self.__dict__
        fields["betti"] = betti
        fields["torsion"] = torsion
        fields["degree"] = degree
        fields["applicability"] = applicability


def link_homology(
    presentation: WeightedLink | BPExponents, source: str | None = None
) -> HomologyGroup:
    """Betti number plus torsion chain, with an applicability flag.

    ``source`` declares the polynomial class behind the presentation:
    "bp" for Brieskorn-Pham, "chain" for iterated chain polynomials, None
    when unknown.  A BPExponents presentation implies "bp".  The torsion
    algorithm is proven for those classes and for every link with n in
    {2, 3}; otherwise the answer is flagged "conjectural" but computed
    all the same.
    """
    if isinstance(presentation, BPExponents):
        source = source or "bp"
    link = as_link(presentation)
    if source is not None and source not in PROVEN_SOURCES:
        raise DomainError(f"unknown source class {source!r}")
    c, sums, total, denominator = _orlik_pass(link)
    betti = _betti(link, total, denominator)
    # k_S = -sums[S] / D, so floor(k_S) = -sums[S] // D, kept where k_S >= 1.
    torsion = _torsion_chain(
        [(-s // denominator, c[mask]) for mask, s in sums.items() if -s >= denominator]
    )
    proven = link.n in (2, 3) or source in PROVEN_SOURCES
    return HomologyGroup(
        betti=betti,
        torsion=torsion,
        degree=link.n - 1,
        applicability="proven" if proven else "conjectural",
    )
