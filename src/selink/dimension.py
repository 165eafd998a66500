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
The enumeration expands one weight's level at a time, with one gcd and
one modular inverse per level rather than per node, and hands every leaf
degree to the two-variable form at once.  It takes a list of degrees, so
a moduli count is two enumerations, at d and at the weights.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import groupby

from . import _EXPORTS, _Value
from .errors import DomainError, InternalConsistencyError, NotSmaleFormError
from .homology import HomologyGroup
from .links import WeightedLink, _index, _indices

__all__ = list(_EXPORTS["dimension"])


class SmaleManifold(_Value):
    """Normal form kM_inf # M_{m_1} # ... # M_{m_s} with m_i | m_{i+1}."""

    __match_args__ = ("betti", "torsion_chain")
    betti: int
    torsion_chain: tuple[int, ...]  # ascending, each >= 2, m_i | m_{i+1}

    def __init__(self, betti, torsion_chain):
        if betti < 0:
            raise DomainError(f"negative rank {betti}")
        for m in torsion_chain:
            if m < 2:
                raise DomainError(f"torsion label {m} < 2")
        for a, b in zip(torsion_chain, torsion_chain[1:]):
            if b % a != 0:
                raise DomainError(
                    f"labels {torsion_chain} do not form a divisibility chain"
                )
        fields = self.__dict__
        fields["betti"] = betti
        fields["torsion_chain"] = torsion_chain

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


class TableLookup(_Value):
    """Outcome of the 5-manifold Sasaki-Einstein classification table.

    status is "yes" (listed, condition satisfied), "unresolved" (listed
    but the table's condition fails or is absent), or "no" (not listed;
    the table is complete, so absent manifolds admit no such metric).
    """

    __match_args__ = ("status", "row", "condition")
    status: str
    row: str | None
    condition: str | None

    def __init__(self, status, row=None, condition=None):
        fields = self.__dict__
        fields["status"] = status
        fields["row"] = row
        fields["condition"] = condition


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
    if tors in ((3, 3), (3, 3, 3)):
        row = f"kM_inf # {len(tors)}M_3"
        return TableLookup("yes" if k == 0 else "unresolved", row=row, condition="k = 0")
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


def _dedekind_sum_12k(h: int, k: int) -> int:
    """12 k s(h, k) for coprime h, k >= 1, an integer, from Euclid's quotients.

    Barkan, Hickerson; Knuth, TAOCP vol. 2, 3.3.3.  Reciprocity
    s(h, k) + s(k, h) = (h^2 + k^2 + 1) / (12hk) - 1/4, carried along the
    Euclidean remainders r_0 = k, r_1 = h mod k, r_{i-1} = a_i r_i + r_{i+1},
    down to r_n = 1, telescopes to

        12 k s(h, k) = k (a_1 - a_2 + ... +- a_n - 3 [n odd]) + r_1 + h',

    with h' the inverse of h mod k taken in (0, k) for odd n and in
    (-k, 0) for even n: h'/k is the alternating sum of the 1/(r_{i-1} r_i).
    Every number stays below k^2.
    """
    h %= k
    if h == 0:
        return 0
    inverse = pow(h, -1, k)
    alternating, sign, x, y = 0, 1, k, h
    while y:
        q, r = divmod(x, y)
        alternating += sign * q
        sign = -sign
        x, y = y, r
    if sign == 1:  # n even
        inverse -= k
    else:
        alternating -= 3
    return k * alternating + h + inverse


def casson_invariant(exponents) -> int:
    """Casson invariant of the Brieskorn homology sphere with these exponents.

    The signature count over the open exponent box divided by 8, in the
    Fintushel-Stern / Neumann-Wahl closed form with a = a_0 a_1 a_2:
    8 lambda = (a/3)(sum 1/a_i^2 - 1) + 1/(3a) - 1 - 4 sum s(a/a_i, a_i).
    Exact, so lambda(Sigma(2, 3, 5)) = -1.  Over the common denominator 3a
    every term is an integer, with 4 s(a/a_i, a_i) = (12 a_i s) (a/a_i) / (3a),
    so no Fraction is built.
    """
    a = _indices(exponents, "exponent")
    if len(a) != 3:
        raise DomainError(f"need exactly 3 exponents, got {len(a)}")
    if min(a) < 2:
        raise DomainError(f"exponents must be >= 2: {a}")
    prod = math.prod(a)
    if math.lcm(*a) != prod:
        raise DomainError(f"exponents {a} are not pairwise coprime")
    denominator = 3 * prod
    tau = 1 - prod * prod - denominator  # 3a tau
    for x in a:
        rest = prod // x
        tau += rest * (rest - _dedekind_sum_12k(rest, x))
    if tau % (8 * denominator):
        g = math.gcd(tau, denominator)
        shown = f"{tau // g}" if g == denominator else f"{tau // g}/{denominator // g}"
        raise InternalConsistencyError(
            f"signature count {shown} for exponents {a} is not an integer divisible by 8"
        )
    return tau // (8 * denominator)


# Terms a continued fraction may have.  q = p - 1 gives p - 1 terms, each
# -2, so without a cap the list grows with p itself.
_MAX_FRACTION_TERMS = 10**6


def negative_continued_fraction(p: int, q: int) -> tuple[int, ...]:
    """Coefficients r_i <= -2 with -p/q = r_0 - 1/(r_1 - 1/(... - 1/r_k)).

    More than ``_MAX_FRACTION_TERMS`` terms is a DomainError, raised as
    soon as the expansion passes that many.
    """
    if not (p > q > 0):
        raise DomainError(f"need p > q > 0, got p={p} q={q}")
    if math.gcd(p, q) != 1:
        raise DomainError(f"p={p} and q={q} are not coprime")
    rs = []
    x, y = p, q
    for _ in range(_MAX_FRACTION_TERMS):
        a = -((-x) // y)  # ceil(x/y)
        rs.append(-a)
        x, y = y, a * y - x
        if not y:
            break
    else:
        raise DomainError(
            f"the continued fraction of -{p}/{q} has more than "
            f"{_MAX_FRACTION_TERMS} terms"
        )
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
# allocation.  The moduli count of a link (at most 64 weights) shares one
# table up to its degree, and stays under it up to degree 3 * 10^5.
_MAX_COUNT_COST = 2 * 10**7


def count_monomials(weights, degree: int) -> int:
    """Number of monomials of weighted degree exactly ``degree``.

    That is the number of x >= 0 with sum w_i x_i = m, m = ``degree``,
    counted exactly by whichever of two methods costs less:

    - Enumeration over the largest weight, the one with the fewest terms,
      down to two variables, which have Popoviciu's (1953) closed form
      (Beck-Robins, *Computing the Continuous Discretely*, ch. 1).  Only
      terms congruent to m modulo the gcd of the other weights can be
      completed, so just those are visited and the rest of the problem is
      divided by that gcd.  The levels are expanded one at a time: each
      level finds its gcd and inverse once for all of its degrees,
      and one closed-form pass takes every leaf degree.  It visits at most
      prod(m // w + 1) nodes over every weight but the two smallest; a
      weight above m adds only its term x = 0.  For a Brieskorn-Pham link
      at its own degree that is prod(a_i + 1) over every exponent but the
      two largest, whatever the degree.
    - The table of counts for every degree up to m, built one weight at a
      time: (n + 1) * (m + 1) cells, as each of the m + 1 entries is set
      once and then updated once per weight.  This wins for many small
      weights, such as (1, 1, 1, 1, 1) at degree 1000.

    The two bounds are compared as integers, a node counted as
    ``_NODE_COST`` cells.  When even the cheaper one exceeds
    ``_MAX_COUNT_COST`` cells the count is a DomainError.  The node bound
    and ``_NODE_COST`` were set when every node paid its own gcd and
    inverse; they are kept as they were, so the bound now overstates what
    an enumeration costs, and tightening it is left to a change of the caps.
    """
    m = _index(degree, "degree")
    ws = _indices(weights, "weight")
    if m < 0:
        raise DomainError(f"degree must be >= 0, got {m}")
    if any(w < 1 for w in ws):
        raise DomainError(f"weights must be positive: {ws}")
    return _counts(ws, ((m,),))[0]


def _counts(weights, calls) -> list[int]:
    """For each list of degrees in ``calls``, the sum of its counts.

    One method and one cost check serve every call.  Weights above every
    degree only take x = 0 and are dropped first.  The node bound grows
    with the degree, so a call costs at most its number of degrees times
    the bound at its largest degree, and enumeration costs those bounds
    added over the calls.  Only when that would pass the limit is each
    degree bounded on its own, which is tighter, before a count is refused.
    One table up to the largest degree, which a refusal names, holds every
    count.
    """
    ws = sorted(weights)
    top = max(map(max, calls))
    del ws[bisect_right(ws, top) :]
    cells = (len(ws) + 1) * (top + 1)
    nodes = _node_bound(ws, calls, cells)
    if min(nodes, cells) > _MAX_COUNT_COST:
        nodes = _node_bound(ws, [(m,) for degrees in calls for m in degrees], cells)
        if min(nodes, cells) > _MAX_COUNT_COST:
            raise DomainError(
                f"counting monomials of degree {top} needs {min(nodes, cells)} steps, "
                f"over the limit of {_MAX_COUNT_COST}"
            )
    if nodes <= cells:
        return [_enumerate(ws, degrees) for degrees in calls]
    counts = [0] * (top + 1)
    counts[0] = 1
    for w in ws:
        for k in range(w, top + 1):
            counts[k] += counts[k - w]
    return [sum(counts[m] for m in degrees) for degrees in calls]


def _node_bound(ws: list[int], calls, cells: int) -> int:
    """Enumeration's cost bound, in cells, added over the calls.

    A call whose largest degree is m costs ``_NODE_COST`` * (its number
    of degrees) * prod(m // w + 1) over every weight but the two smallest;
    a weight above m adds its factor 1.  Once the sum passes ``cells`` the
    comparison is decided, and the rest of a product is not taken.
    """
    nodes = 0
    for degrees in calls:
        m = max(degrees)
        cost = _NODE_COST * len(degrees)
        for w in ws[2:]:
            cost *= m // w + 1
            if nodes + cost > cells:
                break
        nodes += cost
    return nodes


def _enumerate(ws: list[int], degrees) -> int:
    """Solutions of sum w_i x_i = m, x >= 0, summed over m in ``degrees``.

    The weights are ascending and positive.  The largest is expanded
    first, one level at a time: each level takes the degrees the level
    above left and, with one gcd and one inverse for all of them, expands
    each into the degrees that the remaining weights must reach; a level
    holding one degree passes its range on as it is.  A weight above a
    degree leaves it the one term x = 0.  The last two weights take every
    leaf degree in one ``_pair_counts`` call.
    """
    if len(ws) < 2:
        return sum(m % ws[0] == 0 if ws else m == 0 for m in degrees)
    if len(ws) == 2:
        a, b = ws
        g = math.gcd(a, b)
        return _pair_counts(a // g, b // g, [m // g for m in degrees if m % g == 0])
    *rest, w = ws
    # w x = m - (the rest) needs w x = m (mod g): one residue class of x
    # modulo g / h, or none.  Each term leaves the rest to reach
    # (m - w x) / g in the weights divided by g.
    g = math.gcd(*rest)
    h = math.gcd(w, g)
    step = g // h
    inverse = pow(w // h, -1, step)
    if len(degrees) == 1:  # its range is passed on as it is
        m = degrees[0]
        x0 = m // h * inverse % step
        degrees = range((m - w * x0) // g, -1, -(w // h)) if m % h == 0 else ()
    else:
        below = []
        for m in degrees:
            if m % h == 0:
                below += range((m - w * (m // h * inverse % step)) // g, -1, -(w // h))
        degrees = below
    # Divided by g, the weights have gcd 1, and so do those of every level
    # below: there h = 1, w is prime to g, and every degree t has its own
    # residue class t / w (mod g).  Each level divides by the g above it.
    while len(rest) > 2:
        *rest, w = [v // g for v in rest]
        g = math.gcd(*rest)
        inverse = pow(w, -1, g)
        if len(degrees) == 1:
            t = degrees[0]
            degrees = range((t - w * (t * inverse % g)) // g, -1, -w)
        else:
            below = []
            for t in degrees:
                below += range((t - w * (t * inverse % g)) // g, -1, -w)
            degrees = below
    a, b = rest
    return _pair_counts(a // g, b // g, degrees)


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
    prints a warning line for it.  The count at d and the n + 1 counts at
    the weights share one method and one cost check (see ``_counts``).
    """
    total, lower = _counts(link.weights, ((link.degree,), link.weights))
    return 2 * (total - lower)
