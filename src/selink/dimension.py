"""Dimension-specific invariants: 5-manifold names, Casson, contact counts.

Links with n = 3 are simply connected spin 5-manifolds, so Smale's
classification applies: every such manifold is

    kM_inf # M_{m_1} # ... # M_{m_s},   m_1 | m_2 | ... | m_s,  m_i >= 2,

where M_inf = S^2 x S^3, M_m has H_2 = Z/m + Z/m, and the empty sum is
S^5.  smale_name reads that normal form off the invariant factors of a
computed homology group: the torsion of such a link is a doubled group,
whose invariant factors come in equal pairs, and one of each pair is the
chain m_i.  A torsion chain that does not pair up has no spin Smale form
and is refused.

table_lookup answers whether a given Smale manifold is known to admit a
Sasaki-Einstein metric, per the published classification table for spin
simply connected 5-manifolds: listed rows carry sufficient parameter
conditions; a manifold matching a row whose condition fails is unresolved
by the table; a manifold absent from the table cannot admit such a metric.

For n = 2, Brieskorn links with pairwise coprime exponents are integral
homology 3-spheres and carry a Casson invariant lambda = tau/8, where tau
is the signature count over the open exponent box, in closed form
through Dedekind sums.  Tight contact structures on lens spaces are
counted from the negative continued fraction expansion of -p/q.

Monomial counting in the weighted graded ring gives a naive moduli
dimension for the singularity; see moduli_dimension for the convention
and its known discrepancy on the standard degree-12 example.  The count
can be negative on small links and is returned as it is.  A count
enumerates the exponents of the weights with the fewest terms, reduced by
gcds, down to Popoviciu's (1953) closed form for two variables
(Beck-Robins, Computing the Continuous Discretely, ch. 1), at a cost of
about the product of the link's exponents rather than the degree; a
degree-long table is used instead when its exact cost bound is lower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby

from .errors import DomainError, InternalConsistencyError, NotSmaleFormError
from .homology import HomologyGroup
from .links import WeightedLink, _index

__all__ = [
    "SmaleManifold",
    "TableLookup",
    "smale_name",
    "table_lookup",
    "casson_invariant",
    "negative_continued_fraction",
    "tight_contact_count",
    "count_monomials",
    "moduli_dimension",
    "moduli_reference",
    "MODULI_REFERENCE",
]


@dataclass(frozen=True)
class SmaleManifold:
    """Normal form kM_inf # M_{m_1} # ... # M_{m_s} with m_i | m_{i+1}."""

    betti: int
    torsion_chain: tuple[int, ...]  # ascending, each >= 2, m_i | m_{i+1}

    def __post_init__(self):
        if self.betti < 0:
            raise DomainError(f"negative rank {self.betti}")
        for m in self.torsion_chain:
            if m < 2:
                raise DomainError(f"torsion label {m} < 2")
        for a, b in zip(self.torsion_chain, self.torsion_chain[1:]):
            if b % a != 0:
                raise DomainError(
                    f"labels {self.torsion_chain} do not form a divisibility chain"
                )

    def name(self) -> str:
        parts = []
        if self.betti == 1:
            parts.append("M_inf")
        elif self.betti > 1:
            parts.append(f"{self.betti}M_inf")
        for m, grp in groupby(self.torsion_chain):
            count = len(list(grp))
            parts.append(f"M_{m}" if count == 1 else f"{count}M_{m}")
        return " # ".join(parts) if parts else "S^5"


def smale_name(group: HomologyGroup) -> SmaleManifold:
    """Convert H_2 of a 5-dimensional link into Smale normal form.

    H_2 torsion of such a link is a doubled group G + G, and G + G has the
    invariant factors of G, each one twice.  So the descending chain
    d_1, d_2, ... of the group pairs up, d_1 = d_2, d_3 = d_4, ..., and the
    odd-numbered entries, reversed, are the ascending Smale chain.  A chain
    that does not pair up is not a doubled group and is refused.
    """
    if group.degree != 2:
        raise DomainError(f"Smale names need H_2, got degree {group.degree}")
    torsion = group.torsion
    half = torsion[0::2]
    if half != torsion[1::2]:  # also unequal when the length is odd
        raise NotSmaleFormError(
            f"invariant factors of torsion {torsion} do not pair up; "
            "not a doubled group"
        )
    return SmaleManifold(betti=group.betti, torsion_chain=half[::-1])


@dataclass(frozen=True)
class TableLookup:
    """Outcome of the 5-manifold Sasaki-Einstein classification table.

    status is "yes" (listed, condition satisfied), "unresolved" (listed
    but the table's condition fails or is absent), or "no" (not listed;
    the table is complete, so absent manifolds admit no such metric).
    """

    status: str
    row: str | None = None
    condition: str | None = None


# Sporadic table entries given outright as admitting Sasaki-Einstein metrics.
_SPORADIC_YES = {
    (0, (5, 5)): "2M_5",
    (0, (4, 4)): "2M_4",
    (0, (3, 3, 3, 3)): "4M_3",
    (1, (4, 4)): "M_inf # 2M_4",
}

# Condition column for the rows kM_inf # M_m (m > 2), keyed by k = 1..8.
_RANK_CONDITIONS = {
    1: ("m > 11", lambda m: m > 11),
    2: ("m > 11", lambda m: m > 11),
    3: ("m in {7, 9} or m > 10", lambda m: m in (7, 9) or m > 10),
    4: ("m > 4", lambda m: m > 4),
    5: ("m > 11", lambda m: m > 11),
    6: ("m > 2", lambda m: m > 2),
    7: ("m > 2", lambda m: m > 2),
    8: ("m > 4", lambda m: m > 4),
}


def table_lookup(manifold: SmaleManifold) -> TableLookup:
    k, tors = manifold.betti, manifold.torsion_chain
    if not tors:
        return TableLookup("yes", row="kM_inf", condition="any k >= 0")
    if (k, tors) in _SPORADIC_YES:
        return TableLookup("yes", row=_SPORADIC_YES[(k, tors)], condition=None)
    if tors == (3, 3):
        row = "kM_inf # 2M_3"
        if k == 0:
            return TableLookup("yes", row=row, condition="k = 0")
        return TableLookup("unresolved", row=row, condition="k = 0")
    if tors == (3, 3, 3):
        row = "kM_inf # 3M_3"
        if k == 0:
            return TableLookup("yes", row=row, condition="k = 0")
        return TableLookup("unresolved", row=row, condition="k = 0")
    if all(m == 2 for m in tors):
        row = "kM_inf # nM_2"
        cond = "(k, n) = (0, 1) or k = 1"
        if (k, len(tors)) == (0, 1) or k == 1:
            return TableLookup("yes", row=row, condition=cond)
        return TableLookup("unresolved", row=row, condition=cond)
    if len(tors) == 1 and tors[0] > 2:
        m = tors[0]
        if k == 0:
            return TableLookup("yes", row="M_m, m > 2", condition="m > 2")
        if k in _RANK_CONDITIONS:
            text, pred = _RANK_CONDITIONS[k]
            row = f"{k}M_inf # M_m, m > 2"
            if pred(m):
                return TableLookup("yes", row=row, condition=text)
            return TableLookup("unresolved", row=row, condition=text)
        if m < 12:
            # The table's final row has an empty condition cell: the case
            # is open there, not excluded.
            return TableLookup(
                "unresolved", row="kM_inf # M_m, k > 8, 2 < m < 12", condition=None
            )
    return TableLookup("no")


def _dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) for coprime h, k >= 1 by s(h, k) + s(k, h) = (h^2+k^2+1)/(12hk) - 1/4."""
    h %= k
    if h == 0:
        return Fraction(0)
    return Fraction(h * h + k * k + 1 - 3 * h * k, 12 * h * k) - _dedekind_sum(k, h)


def casson_invariant(exponents) -> int:
    """Casson invariant of the Brieskorn homology sphere with these exponents.

    The signature count over the open exponent box divided by 8, in the
    Fintushel-Stern / Neumann-Wahl closed form with a = a_0 a_1 a_2:
    8 lambda = (a/3)(sum 1/a_i^2 - 1) + 1/(3a) - 1 - 4 sum s(a/a_i, a_i).
    Exact, so lambda(Sigma(2, 3, 5)) = -1.
    """
    a = tuple(_index(x, "exponent") for x in exponents)
    if len(a) != 3:
        raise DomainError(f"need exactly 3 exponents, got {len(a)}")
    if any(x < 2 for x in a):
        raise DomainError(f"exponents must be >= 2: {a}")
    for x, y in combinations(a, 2):
        if math.gcd(x, y) != 1:
            raise DomainError(f"exponents {a} are not pairwise coprime")
    prod = math.prod(a)
    tau = Fraction(prod, 3) * (sum(Fraction(1, x * x) for x in a) - 1) - 1
    tau += Fraction(1, 3 * prod) - 4 * sum(_dedekind_sum(prod // x, x) for x in a)
    if tau.denominator != 1 or tau.numerator % 8 != 0:
        raise InternalConsistencyError(
            f"signature count {tau} for exponents {a} is not an integer divisible by 8"
        )
    return tau.numerator // 8


def negative_continued_fraction(p: int, q: int) -> tuple[int, ...]:
    """Coefficients r_i <= -2 with -p/q = r_0 - 1/(r_1 - 1/(... - 1/r_k))."""
    if not (p > q > 0):
        raise DomainError(f"need p > q > 0, got p={p} q={q}")
    if math.gcd(p, q) != 1:
        raise DomainError(f"p={p} and q={q} are not coprime")
    rs = []
    while q:
        a = -((-p) // q)  # ceil(p/q)
        rs.append(-a)
        p, q = q, a * q - p
    if any(r > -2 for r in rs):
        raise InternalConsistencyError(f"continued fraction {rs} has entries > -2")
    return tuple(rs)


def tight_contact_count(p: int, q: int) -> int:
    """Number of tight contact structures on the lens space L(p, q).

    Equals |(r_0 + 1)(r_1 + 1)...(r_k + 1)| over the negative continued
    fraction expansion of -p/q.
    """
    count = 1
    for r in negative_continued_fraction(p, q):
        count *= -(r + 1)
    return count


# Cost of visiting one enumeration node, in table cells.  Timing both
# methods on links of the Brieskorn-Pham enumerations (3, 30), (4, 12) and
# (5, 7) put the break-even ratio at 8.2, 9.7 and 6.6 (medians).
_NODE_COST = 8

# The most work, in table cells (a few seconds), that one count may take;
# when the cheaper method needs more, the count is refused before any
# allocation.  A catalog record (degree <= 10^5) with fewer than 199
# weights stays under it.
_MAX_COUNT_COST = 2 * 10**7


def count_monomials(weights, degree: int) -> int:
    """Number of monomials of weighted degree exactly ``degree``.

    That is the number of x >= 0 with sum w_i x_i = m, m = ``degree``,
    counted exactly by whichever of two methods costs less.  Weights above
    m only take x_i = 0 and are dropped first.

    - Enumeration over the largest weight, the one with the fewest terms,
      down to two variables, which have Popoviciu's (1953) closed form
      (Beck-Robins, *Computing the Continuous Discretely*, ch. 1).  Only
      terms congruent to m modulo the gcd of the other weights can be
      completed, so just those are visited and the rest of the problem is
      divided by that gcd.  It visits at most prod(m // w + 1) nodes over
      every weight but the two smallest.  For a Brieskorn-Pham link at its
      own degree that is prod(a_i + 1) over every exponent but the two
      largest, whatever the degree.
    - The table of counts for every degree up to m, built one weight at a
      time: (n + 1) * (m + 1) cells, as each of the m + 1 entries is set
      once and then updated once per weight.  This wins for many small
      weights, such as (1, 1, 1, 1, 1) at degree 1000.

    The two bounds are compared as integers, a node counted as
    ``_NODE_COST`` cells.  When even the cheaper one exceeds
    ``_MAX_COUNT_COST`` cells the count is a DomainError.
    """
    m = _index(degree, "degree")
    ws = tuple(_index(w, "weight") for w in weights)
    if m < 0:
        raise DomainError(f"degree must be >= 0, got {m}")
    if any(w < 1 for w in ws):
        raise DomainError(f"weights must be positive: {ws}")
    ws = sorted(w for w in ws if w <= m)
    cells = (len(ws) + 1) * (m + 1)
    nodes = _NODE_COST
    for w in ws[2:]:  # once past cells, the comparison below is decided
        nodes *= m // w + 1
        if nodes > cells:
            break
    if min(nodes, cells) > _MAX_COUNT_COST:
        raise DomainError(
            f"counting monomials of degree {m} needs {min(nodes, cells)} steps, "
            f"over the limit of {_MAX_COUNT_COST}"
        )
    if nodes <= cells:
        return _enumerate(ws, m)
    counts = [0] * (m + 1)
    counts[0] = 1
    for w in ws:
        for k in range(w, m + 1):
            counts[k] += counts[k - w]
    return counts[m]


def _enumerate(ws: list[int], m: int) -> int:
    """Solutions of sum w_i x_i = m, x >= 0, for ascending positive ws."""
    if len(ws) < 2:
        return int(m % ws[0] == 0) if ws else int(m == 0)
    if len(ws) == 2:
        a, b = ws
        g = math.gcd(a, b)
        return 0 if m % g else _pair_counts(a // g, b // g, (m // g,))
    *rest, w = ws
    # w x = m - (the rest) needs w x = m (mod g): one residue class of x
    # modulo g / h, or none.  Each term leaves the rest to reach
    # (m - w x) / g in the weights divided by g.
    g = math.gcd(*rest)
    h = math.gcd(w, g)
    if m % h:
        return 0
    step = g // h
    x0 = m // h * pow(w // h, -1, step) % step
    degrees = range((m - w * x0) // g, -1, -(w // h))
    rest = [v // g for v in rest]
    if len(rest) == 2:
        return _pair_counts(*rest, degrees)
    return sum(_enumerate(rest, t) for t in degrees)


def _pair_counts(a: int, b: int, degrees) -> int:
    """Sum over t in degrees of #{x, y >= 0 : a x + b y = t}, a and b coprime.

    Popoviciu's closed form: with x0 = t a^-1 mod b, the count is
    (t - a x0) // (ab) + 1 when t >= a x0, and 0 otherwise.
    """
    inv = pow(a, -1, b)
    ab = a * b
    total = 0
    for t in degrees:
        r = t - a * (t * inv % b)
        if r >= 0:
            total += r // ab + 1
    return total


# Reference value quoted elsewhere for the naive moduli count on the
# standard degree-12 example; our plain monomial count differs, and the
# CLI reports the delta rather than silently matching.  See README.
MODULI_REFERENCE = {((1, 1, 1, 4, 6), 12): 266}


def moduli_reference(link: WeightedLink) -> int | None:
    return MODULI_REFERENCE.get(link.canonical_key())


def moduli_dimension(link: WeightedLink) -> int:
    """2 * (monomials of degree d minus sum of monomials of degree w_i).

    A naive dimension count for the deformation space of the singularity.
    It can come out negative for extreme weight data, such as -6 for
    w=1,1,1 d=2; the count is returned as it is, not clamped, and the CLI
    prints a warning line for it.
    """
    total = count_monomials(link.weights, link.degree)
    lower = sum(count_monomials(link.weights, w) for w in link.weights)
    return 2 * (total - lower)
