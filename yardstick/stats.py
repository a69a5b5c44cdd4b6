"""Order statistics the benchmark reports (stdlib only)."""

from __future__ import annotations

import math


def percentile(values, pct):
    """Percentile by linear interpolation between order statistics.

    Same rule as ``numpy.percentile``'s default, so figures here compare
    with the repo's other reports.  Raises on an empty sample: a metric
    with no samples is a benchmark bug, not a zero.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct!r} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    weight = rank - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def median(values):
    return percentile(values, 50.0)


def supported_tail(num_samples):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it.

    The rule the benchmark uses to pick a tail percentile for a sample
    too small to support p95 (the engine workload's 48 discoveries).
    """
    for pct in (99.0, 95.0, 90.0, 75.0):
        if num_samples * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return 50.0


def geomean(values):
    if not values:
        raise ValueError("geomean of an empty sample")
    return math.exp(sum(math.log(v) for v in values) / len(values))
