"""Percentile and spread helpers shared by the harness and the spread check."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A reported tail percentile needs at least this many samples beyond it.
MIN_TAIL = 10


def percentile(values: Sequence[float], q: float, min_tail: int = MIN_TAIL) -> float:
    """The ``q``-quantile (0 < q < 1) with linear interpolation.

    Raises ``ValueError`` when fewer than ``min_tail`` samples lie beyond
    the quantile's rank, so a "p95" is never read off a handful of points.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    n = len(values)
    tail = n - math.ceil(q * n)
    if tail < min_tail:
        raise ValueError(
            f"p{q * 100:g} needs {min_tail} samples beyond it; "
            f"{n} samples leave {tail}"
        )
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
