"""Integral homology of links from their fractional weights.

The link of an isolated weighted homogeneous singularity in C^{n+1} is an
(n-2)-connected (2n-1)-manifold, so all of its interesting reduced homology
sits in degree n-1:

    H_{n-1}(L; Z) = Z^b  (+)  Z/d_1 (+) ... (+) Z/d_r,   d_{j+1} | d_j.

Both pieces are computed from the reduced fractions u_i/v_i = d/w_i alone.

The free rank b is an alternating sum over the 2^{n+1} subsets of the index
set: the subset {i_1, ..., i_s} contributes

    (-1)^{n+1-s} * (u_{i_1} ... u_{i_s}) / (v_{i_1} ... v_{i_s} * lcm(u_{i_1}, ..., u_{i_s})),

with empty product 1 and lcm() = 1, so the empty subset contributes
(-1)^{n+1}.  The sum is an integer >= 0 for every genuine link; anything
else aborts as an internal inconsistency.

Torsion comes from Orlik's inductive gcd table.  For each proper subset S
of indices (the full set is never needed) define

    c_S = gcd(u_j : j not in S) / prod(c_J : J a proper subset of S),

where every division must be exact, and a rational multiplicity

    k_S = eps(n - s + 1) * sum over ALL subsets J of S, |J| = t, of
          (-1)^{s-t} * (prod u_j) / ((prod v_j) * lcm(u_j : j in J)),

with eps(m) = 1 for odd m and 0 for even m, so k_() = eps(n+1).  Note the
multiplicity sum runs over the full power set of S, including J = S itself;
restricting it to proper subsets is a plausible misreading that breaks
machine-checked examples (see tests).  Then with r = floor(max k),

    d_j = prod(c_S : k_S >= j),    j = 1, ..., r,

after which trivial factors are pruned.  This torsion formula is a theorem
for n = 2 and n = 3, for Brieskorn-Pham polynomials, and for iterated chain
polynomials z_0^{a_0} + z_0 z_1^{a_1} + ... + z_{n-1} z_n^{a_n}; in general
it is Orlik's conjecture, and results carry an applicability flag saying
which situation we are in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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

_MAX_N_BETTI = 20  # 2^(n+1) subset terms
_MAX_N_TORSION = 12  # 3^(n+1) (subset, subset-of-subset) pairs


def _subset_data(u: tuple[int, ...], v: tuple[int, ...]):
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
    u, v = fw.numerators, fw.denominators
    m = len(u)
    prod_u, prod_v, lcm_u = _subset_data(u, v)
    total = Fraction(0)
    for mask in range(1 << m):
        s = mask.bit_count()
        sign = -1 if (m - s) % 2 else 1
        total += Fraction(sign * prod_u[mask], prod_v[mask] * lcm_u[mask])
    if total.denominator != 1 or total < 0:
        raise InternalConsistencyError(
            f"Betti sum for {link.presentation()} is {total}, "
            "expected a nonnegative integer"
        )
    return int(total)


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

    def _mask(self, subset) -> int:
        mask = 0
        for i in subset:
            if not 0 <= i < self.size:
                raise DomainError(f"index {i} out of range for size {self.size}")
            mask |= 1 << i
        return mask

    def c_of(self, subset) -> int:
        return self.c[self._mask(subset)]

    def k_of(self, subset) -> Fraction:
        return self.k[self._mask(subset)]


def orlik_table(link: WeightedLink | BPExponents) -> OrlikTable:
    """Build the full c/k table over proper index subsets."""
    link = as_link(link)
    if link.n > _MAX_N_TORSION:
        raise DomainError(f"n={link.n} too large for the torsion table")
    fw = fractional_weights(link)
    u, v = fw.numerators, fw.denominators
    m = len(u)
    size = 1 << m
    full = size - 1
    prod_u, prod_v, lcm_u = _subset_data(u, v)

    # gcd of the u_j over the complement of each mask, built top-down.
    gcd_comp = [0] * size
    for mask in range(size):
        g = 0
        rest = full ^ mask
        while rest:
            low = rest & -rest
            g = math.gcd(g, u[low.bit_length() - 1])
            rest ^= low
        gcd_comp[mask] = g

    c: list = [None] * size
    k: list = [Fraction(0)] * size
    # Increasing-popcount order so every proper submask is ready when needed.
    for mask in sorted(range(size), key=lambda x: x.bit_count()):
        s = mask.bit_count()
        if mask != full:
            denom = 1
            if mask:
                sub = (mask - 1) & mask
                while True:  # all proper submasks, the empty one included
                    denom *= c[sub]
                    if sub == 0:
                        break
                    sub = (sub - 1) & mask
            numer = gcd_comp[mask]
            quotient, remainder = divmod(numer, denom)
            if remainder != 0:
                subset = tuple(i for i in range(m) if mask >> i & 1)
                raise TorsionDivisionError(subset, numer, denom)
            c[mask] = quotient
        # eps(n - s + 1) with n = m - 1: nonzero only when m - s is odd.
        if (m - s) % 2 == 1:
            acc = Fraction(0)
            sub = mask
            while True:
                t = sub.bit_count()
                sign = -1 if (s - t) % 2 else 1
                acc += Fraction(sign * prod_u[sub], prod_v[sub] * lcm_u[sub])
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            k[mask] = acc
    return OrlikTable(size=m, c=tuple(c), k=tuple(k))


def torsion_orders(table: OrlikTable) -> tuple[int, ...]:
    """Divisibility chain d_1, d_2, ... (descending, trivial factors pruned)."""
    full = (1 << table.size) - 1
    # c[mask] divides d_j exactly for the integers j = 1..floor(k[mask]), so
    # only masks with c > 1 matter and the chain stops at their largest count.
    factors = []
    for mask in range(full + 1):
        if table.k[mask] < 1:
            continue
        if mask == full:
            raise InternalConsistencyError("full index set cannot carry multiplicity")
        if table.c[mask] > 1:
            factors.append((int(table.k[mask]), table.c[mask]))
    r = max((count for count, _ in factors), default=0)
    orders = []
    for j in range(1, r + 1):
        d = 1
        for count, c in factors:
            if count >= j:
                d *= c
        if d > 1:
            orders.append(d)
    for a, b in zip(orders, orders[1:]):
        if a % b != 0:
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
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b < 2 or a % b != 0:
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
    betti = betti_number(link)
    torsion = torsion_orders(orlik_table(link))
    proven = link.n in (2, 3) or source in PROVEN_SOURCES
    return HomologyGroup(
        betti=betti,
        torsion=torsion,
        degree=link.n - 1,
        applicability="proven" if proven else "conjectural",
    )
