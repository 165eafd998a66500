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
from fractions import Fraction
from itertools import accumulate

from . import _EXPORTS, _Value
from .errors import DomainError, InternalConsistencyError
from .links import STATUSES, BPExponents, WeightedLink, classify_type

__all__ = list(_EXPORTS["existence"])

RULES = ("ghigi_kollar", "lichnerowicz", "bp_klt_window", "crude_klt")


class ExistenceVerdict(_Value):
    __match_args__ = ("link_type", "status", "rule", "margin")
    link_type: str
    status: str
    rule: str | None
    margin: Fraction | None

    def __init__(self, link_type, status, rule=None, margin=None):
        if status not in STATUSES or rule not in (None, *RULES):
            raise InternalConsistencyError(f"bad verdict {status}/{rule}")
        # A Sasaki-Einstein claim either way needs a positive link.
        if status in ("se_exists", "obstructed") and link_type != "positive":
            raise InternalConsistencyError(f"{status} on a {link_type} link")
        fields = self.__dict__
        fields["link_type"] = link_type
        fields["status"] = status
        fields["rule"] = rule
        fields["margin"] = margin


# Each rule has one exact slack, positive iff the rule fires;
# decide_existence tests its sign and takes each margin from it.


def _lichnerowicz_slack(link: WeightedLink) -> Fraction:
    """I - n * min w_i."""
    return Fraction(link.index - link.n * min(link.weights))


def _crude_klt_slack(link: WeightedLink) -> Fraction:
    """(n/(n-1)) * min_{i<j} w_i w_j - I * d."""
    n = link.n
    w0, w1 = sorted(link.weights)[:2]  # the smallest product of two weights
    return Fraction(n, n - 1) * w0 * w1 - link.index * link.degree


def _window_slack(bp: BPExponents, upper: Fraction) -> Fraction:
    """min(sum 1/a_i - 1, upper - sum 1/a_i), the slack of 1 < sum 1/a_i < upper."""
    total = bp.reciprocal_sum()
    return min(total - 1, upper - total)


def _bp_klt_slack(bp: BPExponents) -> Fraction:
    """The window with upper end 1 + (n/(n-1)) * min over 1/a_i and 1/(b_j b_k)."""
    a = bp.exponents
    n = bp.n
    # b_j from the lcms before j and after j; the smallest candidate is 1
    # over the larger of max a and the product of the two largest b.
    before = list(accumulate(a, math.lcm, initial=1))
    after = list(accumulate(reversed(a), math.lcm, initial=1))[::-1]
    b = sorted(math.gcd(x, math.lcm(before[j], after[j + 1])) for j, x in enumerate(a))
    return _window_slack(bp, 1 + Fraction(n, (n - 1) * max(max(a), b[-1] * b[-2])))


def _ghigi_kollar_slack(bp: BPExponents) -> Fraction:
    """The window with upper end 1 + n / max a_i."""
    return _window_slack(bp, 1 + Fraction(bp.n, max(bp.exponents)))


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
    if bp is not None and bp.link is not link and bp.link != link:
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
