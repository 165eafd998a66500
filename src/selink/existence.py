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

Each slack is held as an integer pair, a numerator over a positive
denominator, so a rule fires or not on the sign of one integer.  The
Brieskorn-Pham windows need no sum of reciprocals: with w_i = d / a_i,

    sum 1/a_i = |w| / d = 1 + I/d,

so a window 1 < sum 1/a_i < 1 + n/T has the slack min(I T, n d - I T)
over T d.  A verdict builds at most one ``Fraction``, for the margin it
returns, and ``fractions`` is imported only there: a negative or null
link's verdict loads neither it nor the ``decimal`` and ``numbers``
modules it imports.
"""

from __future__ import annotations

import math

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


# Each rule has one exact slack, positive iff the rule fires, held as an
# integer numerator over a positive denominator; decide_existence tests the
# numerator's sign and builds a Fraction only for the margin it returns.


def _lichnerowicz_slack(link: WeightedLink) -> tuple[int, int]:
    """I - n * min w_i, over 1."""
    return link.index - link.n * min(link.weights), 1


def _crude_klt_slack(link: WeightedLink) -> tuple[int, int]:
    """(n/(n-1)) * min_{i<j} w_i w_j - I * d, as n w_0 w_1 - (n-1) I d over n - 1."""
    n = link.n
    w0, w1 = sorted(link.weights)[:2]  # the smallest product of two weights
    return n * w0 * w1 - (n - 1) * link.index * link.degree, n - 1


def _window_slack(bp: BPExponents, top: int) -> tuple[int, int]:
    """The slack of 1 < sum 1/a_i < 1 + n / T over T d, for T = ``top``.

    sum 1/a_i = 1 + I/d, so the two ends' slacks are I T / (T d) and
    (n d - I T) / (T d).
    """
    link = bp.link
    lower = link.index * top
    return min(lower, bp.n * link.degree - lower), top * link.degree


def _bp_klt_slack(bp: BPExponents) -> tuple[int, int]:
    """The window with upper end 1 + (n/(n-1)) * min over 1/a_i and 1/(b_j b_k)."""
    a = bp.exponents
    w = bp.link.weights
    # With L_j the lcm of the a_i other than a_j, the w_i = d / a_i other
    # than w_j have gcd d / L_j, and d = lcm(a_j, L_j) = a_j L_j / b_j, so
    # b_j = a_j / gcd(w_i : i != j).  The smallest candidate is 1 over the
    # larger of max a and the product of the two largest b.
    b = []
    for j, x in enumerate(a):  # a loop: for a few exponents, cheaper than a comprehension
        b.append(x // math.gcd(*w[:j], *w[j + 1 :]))
    b.sort()
    return _window_slack(bp, (bp.n - 1) * max(max(a), b[-1] * b[-2]))


def _ghigi_kollar_slack(bp: BPExponents) -> tuple[int, int]:
    """The window with upper end 1 + n / max a_i."""
    return _window_slack(bp, max(bp.exponents))


def _verdict(status: str, rule: str, slack: int, denominator: int) -> ExistenceVerdict:
    """A positive link's verdict, with the margin slack / denominator."""
    import fractions  # per call, a plain import costs a fifth of a from-import

    return ExistenceVerdict("positive", status, rule, fractions.Fraction(slack, denominator))


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
        slack, denominator = _ghigi_kollar_slack(bp)
        # Positive link, so sum 1/a_i > 1 and a slack <= 0 is the upper
        # end's: the margin is sum 1/a_i - upper.  That end coincides with
        # the Lichnerowicz bound, and sharpness turns the non-strict
        # boundary case into an obstruction as well.
        status = "se_exists" if slack > 0 else "obstructed"
        return _verdict(status, "ghigi_kollar", abs(slack), denominator)

    slack, denominator = _lichnerowicz_slack(link)
    if slack > 0:
        return _verdict("obstructed", "lichnerowicz", slack, denominator)

    if bp is not None:
        slack, denominator = _bp_klt_slack(bp)
        if slack > 0:
            return _verdict("se_exists", "bp_klt_window", slack, denominator)

    slack, denominator = _crude_klt_slack(link)
    if slack > 0:
        return _verdict("se_exists", "crude_klt", slack, denominator)

    return ExistenceVerdict(link_type, "unknown")
