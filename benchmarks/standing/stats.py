"""Small-sample statistics the harness reports with."""

from __future__ import annotations

import math
import statistics
from typing import List, Optional, Sequence

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of unsorted ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(math.ceil(fraction * len(ordered)), 1)
    return ordered[rank - 1]


def supports(sample_count: int, fraction: float) -> bool:
    """Whether ``sample_count`` samples leave at least
    :data:`MIN_SAMPLES_BEYOND` beyond the ``fraction`` percentile."""
    return sample_count - math.ceil(fraction * sample_count) >= MIN_SAMPLES_BEYOND


def percentile_if_supported(values: Sequence[float], fraction: float) -> Optional[float]:
    return percentile(values, fraction) if supports(len(values), fraction) else None


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the run-to-run
    spread the benchmark contract uses); 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def window_rates(completions: Sequence[float], started: float, windows: int) -> List[float]:
    """Ops per second in ``windows`` equal-count slices of a phase, from
    the completion times of its ops (any thread) and its start time."""
    ordered = sorted(completions)
    size = len(ordered) // windows
    rates: List[float] = []
    previous = started
    for index in range(windows):
        last = ordered[(index + 1) * size - 1]
        rates.append(size / (last - previous))
        previous = last
    return rates
