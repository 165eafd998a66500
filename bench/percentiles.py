"""Latency summaries: a median plus the highest well-supported tail percentile.

A tail percentile is only reported when at least ``MIN_BEYOND`` samples lie
beyond it; otherwise a single slow sample would decide the figure.  The
percentile is chosen from the number of operations in one pass over a
workload's input list, which the seed does not change, so it stays the
same however many passes a run fits into its time budget.
"""

from __future__ import annotations

import statistics
from fractions import Fraction

LADDER = ("50", "75", "90", "95", "99", "99.9")
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND of n samples beyond it."""
    best = None
    for p in LADDER:
        if n * (100 - Fraction(p)) / 100 >= MIN_BEYOND:
            best = float(p)
    return best


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)
