"""Order statistics for the benchmark's latency and repeat reports."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(sorted_values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest nearest-rank
    percentile with ``MIN_BEYOND`` samples beyond it, from an ascending
    sequence.  Below ``2 * MIN_BEYOND`` samples that percentile would lie
    under the median, so the tail is the maximum, with none beyond."""
    n = len(sorted_values)
    if n < 2 * MIN_BEYOND:
        return sorted_values[-1], 100.0, 0
    rank = n - MIN_BEYOND
    return sorted_values[rank - 1], 100 * rank / n, MIN_BEYOND


def spread(values) -> dict:
    """Median, quartiles and the interquartile distance as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` gives."""
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else None,
        "n": len(values),
    }
