"""Integral homology of links from their fractional weights.

The link of an isolated weighted homogeneous singularity in C^{n+1} is an
(n-2)-connected (2n-1)-manifold, so all of its interesting reduced homology
sits in degree n-1:

    H_{n-1}(L; Z) = Z^b  (+)  Z/d_1 (+) ... (+) Z/d_r,   d_{j+1} | d_j.

Both pieces are computed from the reduced fractions u_i/v_i = d/w_i alone,
as tables indexed by bitmasks over the m = n+1 indices (bit i selects
index i).  Each subset J contributes the term

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

after which trivial factors are pruned.

Read literally, both tables pair every S with every subset of S: 3^m
pairs.  Neither is computed that way.  The definition of c says that the
product of c_J over all J in S is gcd(u_j : j not in S), so c is the
multiplicative Moebius inverse of the complement gcds; the k_S are, up to
eps and the factor 1/D, the additive Moebius inverse of the integer terms.
Each inverse is m in-place passes over the 2^m masks, O(m * 2^m) steps in
all, and the Betti sum is one O(2^m) pass.  The torsion chain then costs
O(F log F + r) for the F masks with c_S > 1.  The definitional 3^m loops
live on in the tests as oracles.

This torsion formula is a theorem for n = 2 and n = 3, for Brieskorn-Pham
polynomials, and for iterated chain polynomials
z_0^{a_0} + z_0 z_1^{a_1} + ... + z_{n-1} z_n^{a_n}; in general it is
Orlik's conjecture, and results carry an applicability flag saying which
situation we are in.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from .errors import DomainError, InternalConsistencyError, TorsionDivisionError
from .links import (
    BPExponents,
    WeightedLink,
    as_link,
    bp_to_link,
    fractional_weights,
)

__all__ = [
    "HomologyGroup",
    "OrlikTable",
    "betti_number",
    "orlik_table",
    "torsion_orders",
    "link_homology",
]

# Polynomial classes for which the torsion algorithm is an actual theorem.
PROVEN_SOURCES = ("bp", "chain")

_MAX_N_BETTI = 20  # one pass over 2^(n+1) subset terms
_MAX_N_TORSION = 12  # two transforms of (n+1) * 2^n steps each


def _check_torsion_size(n: int) -> None:
    if n > _MAX_N_TORSION:
        raise DomainError(f"n={n} too large for the torsion table")


def _subset_terms(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[list[int], int]:
    """Integer numerators D * f(J) per bitmask J, and the common denominator D.

    Adding index i to J multiplies f(J) by gcd(lcm(u_J), u_i) / v_i, so the
    tables double as the indices are taken in: the new half is the old one
    with bit i set.
    """
    denominator = math.prod(v) * math.lcm(*u)
    terms, lcm_u = [denominator], [1]
    for x, y in zip(u, v):
        gcds = [math.gcd(ell, x) for ell in lcm_u]
        terms += [term * g // y for term, g in zip(terms, gcds)]
        lcm_u += [ell * x // g for ell, g in zip(lcm_u, gcds)]
    return terms, denominator


def _moebius_slices(m: int):
    """Slice pairs (masks containing bit i, the same masks without it).

    Element by element, the first slice lists masks S and the second the
    masks S ^ (1 << i).  Applying an invertible step from each source to
    its target, bit after bit, turns a table of sums over subsets into the
    table of summands: the subset Moebius inversion.  Each bit is cut into
    as few slices as possible, strided for low bits and contiguous for high
    ones, so the arithmetic runs in ``map`` rather than a Python loop.
    """
    size = 1 << m
    for i in range(m):
        bit = 1 << i
        step = bit << 1
        if bit * bit <= size:
            for offset in range(bit):
                yield slice(bit + offset, size, step), slice(offset, size, step)
        else:
            for base in range(bit, size, step):
                yield slice(base, base + bit), slice(base - bit, base)


def _gcd_moebius(u: tuple[int, ...]) -> list:
    """The c table: multiplicative Moebius inverse of the complement gcds.

    Entry S holds gcd(u_j : j not in S) before the passes; each pass divides
    it by its neighbour without one bit, c[S] //= c[S ^ bit].  The full mask
    starts at gcd() = 0, is never a divisor, and ends as None.
    """
    m = len(u)
    size = 1 << m
    gcd_of = [0]  # gcd(u_j : j in mask), doubling as in _subset_terms
    for x in u:
        gcd_of += [math.gcd(g, x) for g in gcd_of]
    c: list = gcd_of[::-1]  # the complement of mask is size - 1 - mask
    for into, source in _moebius_slices(m):
        dividends, divisors = c[into], c[source]
        if any(map(operator.mod, dividends, divisors)):
            for mask, a, b in zip(range(size)[into], dividends, divisors):
                if a % b:
                    subset = tuple(i for i in range(m) if mask >> i & 1)
                    raise TorsionDivisionError(subset, a, b)
        c[into] = map(operator.floordiv, dividends, divisors)
    c[-1] = None
    return c


def factorint(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1 by trial division (orders are small)."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = 1
    return factors


def betti_number(link: WeightedLink | BPExponents) -> int:
    """Free rank of H_{n-1}(L; Z) via the alternating subset sum."""
    link = as_link(link)
    if link.n > _MAX_N_BETTI:
        raise DomainError(f"n={link.n} too large for subset enumeration")
    fw = fractional_weights(link)
    m = len(fw.numerators)
    terms, denominator = _subset_terms(fw.numerators, fw.denominators)
    total = sum(
        -term if (m - mask.bit_count()) % 2 else term for mask, term in enumerate(terms)
    )
    if total < 0 or total % denominator != 0:
        raise InternalConsistencyError(
            f"Betti sum for {link.presentation()} is {Fraction(total, denominator)}, "
            "expected a nonnegative integer"
        )
    return total // denominator


@dataclass(frozen=True)
class OrlikTable:
    """The c (integer) and k (rational multiplicity) tables, bitmask-indexed.

    Bit i of a mask selects index i.  The entry for the full index set is
    never computed (its multiplicity vanishes identically, so it can never
    enter a torsion product); c holds None there.
    """

    size: int  # number of indices, n+1
    c: tuple  # int per mask, None at the full mask
    k: tuple  # Fraction per mask


def orlik_table(link: WeightedLink | BPExponents) -> OrlikTable:
    """Build the full c/k table over proper index subsets, in O(m * 2^m).

    c is computed by dividing in place (see ``_gcd_moebius``), and every
    division is exact for positive u.  At a prime p the complement gcd has
    exponent g(S) = min(v_p(u_j) : j not in S), which is the number of
    thresholds t >= 1 whose set {j : v_p(u_j) < t} lies inside S.  So the
    Moebius inverse of g counts thresholds and is >= 0.  After the passes
    over a set B of bits, entry S holds the inverse over the subsets T of
    S & B of T -> g((S - B) | T), a function of the same form (the indices
    outside S act as one more index, never in T), so its exponent is >= 0
    as well.  Every intermediate entry is therefore an integer.  The remainder check stays
    as a safety net: ``TorsionDivisionError`` names the index subset of the
    mask being divided, with the dividend and the divisor of that step.
    """
    link = as_link(link)
    _check_torsion_size(link.n)
    fw = fractional_weights(link)
    u, v = fw.numerators, fw.denominators
    m = len(u)
    c = _gcd_moebius(u)
    terms, denominator = _subset_terms(u, v)
    for into, source in _moebius_slices(m):
        terms[into] = map(operator.sub, terms[into], terms[source])
    # eps(n - s + 1) with n = m - 1: nonzero only when m - s is odd.
    zero = Fraction(0)
    k = tuple(
        Fraction(term, denominator) if term and (m - mask.bit_count()) % 2 else zero
        for mask, term in enumerate(terms)
    )
    return OrlikTable(size=m, c=tuple(c), k=k)


def torsion_orders(table: OrlikTable) -> tuple[int, ...]:
    """Divisibility chain d_1, d_2, ... (descending, trivial factors pruned)."""
    full = (1 << table.size) - 1
    # c[mask] divides d_j exactly for the integers j = 1..floor(k[mask]), so
    # only masks with c > 1 matter and the chain stops at their largest count.
    factors = []
    for mask, k in enumerate(table.k):
        if k.numerator < k.denominator:  # k < 1, without Fraction's slow compare
            continue
        if mask == full:
            raise InternalConsistencyError("full index set cannot carry multiplicity")
        if table.c[mask] > 1:
            factors.append((int(k), table.c[mask]))
    # Sweep j from the largest count down with a running product: d_j is
    # d_{j+1} times the factors whose count is exactly j, so d stays the same
    # between consecutive counts, and it is > 1 from the top count on.
    factors.sort(reverse=True)
    orders = []  # d_r, d_{r-1}, ..., reversed below
    d = 1
    j = factors[0][0] if factors else 0
    for count, c in factors:
        orders += [d] * (j - count)
        d *= c
        j = count
    orders += [d] * j
    orders.reverse()
    if any(map(operator.mod, orders, orders[1:])):
        raise InternalConsistencyError(f"torsion chain {orders} not divisible")
    return tuple(orders)


@dataclass(frozen=True)
class HomologyGroup:
    """H_{n-1}(L; Z) = Z^betti (+) sum of Z/d_j, with d_{j+1} | d_j."""

    betti: int
    torsion: tuple[int, ...]
    degree: int  # homology degree n-1
    applicability: str  # "proven" | "conjectural"

    def __post_init__(self):
        if self.betti < 0:
            raise InternalConsistencyError(f"negative Betti number {self.betti}")
        # Equal neighbours divide each other once they are >= 2, so the
        # pairs are checked on runs: a long chain has few distinct values.
        runs = self.torsion[:1] + tuple(k for k, _ in groupby(self.torsion[1:]))
        tail = runs[1:]
        if tail and (min(tail) < 2 or any(map(operator.mod, runs, tail))):
            raise InternalConsistencyError(
                f"torsion {self.torsion} is not a pruned divisibility chain"
            )
        if self.torsion and self.torsion[-1] < 2:
            raise InternalConsistencyError(f"trivial torsion factor in {self.torsion}")

    def primary_decomposition(self) -> tuple[int, ...]:
        """Sorted multiset of prime powers p^e, one per cyclic primary factor.

        Two finite abelian groups are isomorphic iff these multisets agree,
        which is how golden values quoted in mixed forms are compared.
        """
        powers = []
        for d in self.torsion:
            for p, e in factorint(d).items():
                powers.append(p**e)
        return tuple(sorted(powers))

    def group_string(self) -> str:
        parts = []
        if self.betti:
            parts.append(f"Z^{self.betti}" if self.betti > 1 else "Z")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


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
        link = bp_to_link(presentation)
    else:
        link = presentation
    if source is not None and source not in PROVEN_SOURCES:
        raise DomainError(f"unknown source class {source!r}")
    # Refuse a table that is too large before the O(2^(n+1)) Betti sum;
    # beyond the Betti cap, betti_number's own error comes first.
    if link.n <= _MAX_N_BETTI:
        _check_torsion_size(link.n)
    betti = betti_number(link)
    torsion = torsion_orders(orlik_table(link))
    proven = link.n in (2, 3) or source in PROVEN_SOURCES
    return HomologyGroup(
        betti=betti,
        torsion=torsion,
        degree=link.n - 1,
        applicability="proven" if proven else "conjectural",
    )
