"""Order statistics the benchmark reports: nearest-rank percentiles, spreads."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of the
    sample at or below it (``q`` in (0, 1]).  Always an observed value."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of the sample (a quarter trimmed from each end).

    Robust to the tail like the median, but continuous where the median is
    not: on a bimodal latency mix whose modes meet near the 50th percentile
    (TPC-C: 51 % of transactions are faster than a new-order) the median flips
    between the modes from one seed's mix to the next; this moves by the share
    that crossed."""
    if not values:
        raise ValueError("interquartile mean of an empty sample")
    ordered = sorted(values)
    trim = len(ordered) // 4
    return statistics.fmean(ordered[trim : len(ordered) - trim])


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the noise measure the
    benchmark contract uses (``statistics.quantiles(values, n=4)``).  Zero for
    fewer than two values or a zero median."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(middle)
