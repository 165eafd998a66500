"""Sasaki-Einstein existence and obstruction tests on links.

All inequalities are evaluated strictly over exact rationals; sitting on a
boundary never counts as satisfying a test.  For a positive link (index
I = |w| - d > 0) the implemented rules are:

* Lichnerowicz-type obstruction: I > n * min_i w_i rules out any
  Sasaki-Einstein metric.
* A crude Kawamata-log-terminal sufficiency bound on the weight data:
  I * d < (n/(n-1)) * min_{i<j} w_i w_j guarantees existence.
* For Brieskorn-Pham exponents a, a sharper klt window
  1 < sum 1/a_i < 1 + (n/(n-1)) * min({1/a_i} and {1/(b_j b_k), j<k}),
  where b_j = gcd(a_j, lcm(a_i : i != j)).
* For pairwise coprime Brieskorn-Pham exponents the Ghigi-Kollar interval
  is sharp: a Sasaki-Einstein metric exists iff
  1 < sum 1/a_i < 1 + n * min_i 1/a_i.

Negative and null links are not candidates for Sasaki-Einstein metrics at
all, but always carry eta-Einstein structures (of negative and null type)
by transverse Aubin-Yau, and the verdict says so instead.

Each verdict records which rule decided it and the exact rational margin
by which the deciding inequality held (the minimum slack for two-sided
windows), so downstream consumers can see how close a case is to the
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import DomainError, InternalConsistencyError
from .links import BPExponents, WeightedLink, classify_type

__all__ = [
    "STATUSES",
    "RULES",
    "ExistenceVerdict",
    "lichnerowicz_obstruction",
    "crude_klt",
    "bp_klt_window",
    "ghigi_kollar",
    "decide_existence",
]

STATUSES = ("se_exists", "obstructed", "unknown", "eta_einstein_exists")
RULES = ("ghigi_kollar", "lichnerowicz", "bp_klt_window", "crude_klt")


@dataclass(frozen=True)
class ExistenceVerdict:
    link_type: str
    status: str
    rule: str | None = None
    margin: Fraction | None = None

    def __post_init__(self):
        if self.status not in STATUSES or self.rule not in (None, *RULES):
            raise InternalConsistencyError(f"bad verdict {self.status}/{self.rule}")
        # A Sasaki-Einstein claim either way needs a positive link.
        if self.status in ("se_exists", "obstructed") and self.link_type != "positive":
            raise InternalConsistencyError(f"{self.status} on a {self.link_type} link")


# Each rule has one exact slack, positive iff the rule fires; the public
# predicates test its sign and decide_existence takes each margin from it.


def _lichnerowicz_slack(link: WeightedLink) -> Fraction:
    """I - n * min w_i."""
    return Fraction(link.index - link.n * min(link.weights))


def _crude_klt_slack(link: WeightedLink) -> Fraction:
    """(n/(n-1)) * min_{i<j} w_i w_j - I * d."""
    n = link.n
    pair_min = min(a * b for a, b in combinations(link.weights, 2))
    return Fraction(n, n - 1) * pair_min - link.index * link.degree


def _window_slack(bp: BPExponents, upper: Fraction) -> Fraction:
    """min(sum 1/a_i - 1, upper - sum 1/a_i), the slack of 1 < sum 1/a_i < upper."""
    total = bp.reciprocal_sum()
    return min(total - 1, upper - total)


def _bp_klt_slack(bp: BPExponents) -> Fraction:
    """The window with upper end 1 + (n/(n-1)) * min over 1/a_i and 1/(b_j b_k)."""
    a = bp.exponents
    n = bp.n
    b = []
    for j in range(len(a)):
        c_j = math.lcm(*(a[i] for i in range(len(a)) if i != j))
        b.append(math.gcd(a[j], c_j))
    candidates = [Fraction(1, ai) for ai in a]
    candidates += [Fraction(1, bj * bk) for bj, bk in combinations(b, 2)]
    return _window_slack(bp, 1 + Fraction(n, n - 1) * min(candidates))


def _ghigi_kollar_slack(bp: BPExponents) -> Fraction:
    """The window with upper end 1 + n / max a_i."""
    return _window_slack(bp, 1 + Fraction(bp.n, max(bp.exponents)))


def lichnerowicz_obstruction(link: WeightedLink) -> bool:
    """True iff I > n * min w_i, which forbids a Sasaki-Einstein metric.

    Only meaningful for positive links; for I <= 0 the inequality is
    vacuously false.
    """
    return _lichnerowicz_slack(link) > 0


def crude_klt(link: WeightedLink) -> bool:
    """True iff I * d < (n/(n-1)) * min_{i<j} w_i w_j.

    A sufficient condition for existence on positive links.  It evaluates
    on any link (vacuously true for I <= 0) but the aggregate verdict only
    consults it in the positive case.
    """
    return _crude_klt_slack(link) > 0


def bp_klt_window(bp: BPExponents) -> bool:
    """Two-sided klt window test for Brieskorn-Pham exponents.

    Returns the bare truth of 1 < sum 1/a_i < upper bound; in particular
    it is false (not an error) on the positivity boundary sum 1/a_i = 1.
    """
    return _bp_klt_slack(bp) > 0


def ghigi_kollar(bp: BPExponents) -> str:
    """Sharp test for pairwise coprime exponents.

    Returns "exists", "not_exists", or "not_applicable" when the exponents
    are not pairwise coprime.
    """
    if not bp.pairwise_coprime():
        return "not_applicable"
    return "exists" if _ghigi_kollar_slack(bp) > 0 else "not_exists"


def decide_existence(
    link: WeightedLink, bp: BPExponents | None = None
) -> ExistenceVerdict:
    """Aggregate verdict with rule priority.

    Order: the sharp Ghigi-Kollar test when applicable is final; otherwise
    the Lichnerowicz obstruction; otherwise the sufficiency bounds (the
    Brieskorn-Pham window before the crude weight bound); otherwise
    unknown.  Negative and null links short-circuit to the eta-Einstein
    statement.  When ``bp`` is given it must present ``link``.
    """
    if bp is not None and bp.link != link:
        raise DomainError(f"{bp.presentation()} does not present {link.presentation()}")
    link_type = classify_type(link)
    if link_type != "positive":
        return ExistenceVerdict(link_type=link_type, status="eta_einstein_exists")

    if bp is not None and bp.pairwise_coprime():
        slack = _ghigi_kollar_slack(bp)
        if slack > 0:
            return ExistenceVerdict(link_type, "se_exists", "ghigi_kollar", slack)
        # Positive link, so sum 1/a_i > 1 and the slack is the upper end's:
        # the margin is sum 1/a_i - upper.  That end coincides with the
        # Lichnerowicz bound, and sharpness turns the non-strict boundary
        # case into an obstruction as well.
        return ExistenceVerdict(link_type, "obstructed", "ghigi_kollar", -slack)

    slack = _lichnerowicz_slack(link)
    if slack > 0:
        return ExistenceVerdict(link_type, "obstructed", "lichnerowicz", slack)

    if bp is not None:
        slack = _bp_klt_slack(bp)
        if slack > 0:
            return ExistenceVerdict(link_type, "se_exists", "bp_klt_window", slack)

    slack = _crude_klt_slack(link)
    if slack > 0:
        return ExistenceVerdict(link_type, "se_exists", "crude_klt", slack)

    return ExistenceVerdict(link_type, "unknown")
