"""Order statistics for benchmark samples, standard library only.

Every reported metric carries its median, the highest percentile of a
fixed ladder that still has at least ten samples above it, and the
sample count.  With fewer than twenty samples no percentile qualifies,
not even the median, and the tail is reported as absent.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(ordered: list, p: float) -> tuple[int, float]:
    """0-based index and value of the nearest-rank p-th percentile of an
    ascending list."""
    k = max(math.ceil(Fraction(str(p)) / 100 * len(ordered)) - 1, 0)
    return k, ordered[k]


def tail(values) -> tuple[float, float] | None:
    """(p, value) for the highest ladder percentile with at least
    MIN_BEYOND samples strictly above its rank, or None."""
    ordered = sorted(values)
    for p in PERCENTILES:
        k, v = nearest_rank(ordered, p)
        if len(ordered) - 1 - k >= MIN_BEYOND:
            return p, v
    return None


def describe(values) -> dict:
    """Median, tail percentile and sample count of a non-empty sample."""
    values = list(values)
    if not values:
        raise ValueError("describe needs at least one sample")
    t = tail(values)
    return {
        "median": statistics.median(values),
        "n": len(values),
        "tail_p": None if t is None else t[0],
        "tail": None if t is None else t[1],
    }
