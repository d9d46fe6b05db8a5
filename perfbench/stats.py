"""Order statistics with the sample-count rule the benchmark reports by.

A tail percentile is only reported when at least :data:`MIN_BEYOND`
samples lie beyond it; otherwise the highest percentile that has that
many is reported instead, always together with the sample count.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

#: Tail levels tried, highest first, when p99 lacks samples beyond it.
TAIL_LEVELS = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], level: float) -> float:
    """Linear-interpolated percentile (``level`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= level <= 100.0:
        raise ValueError(f"percentile level {level} outside 0..100")
    ordered = sorted(values)
    position = (len(ordered) - 1) * level / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    if fraction == 0.0 or ordered[high] == ordered[low]:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def samples_beyond(count: int, level: float) -> int:
    """How many of ``count`` samples lie beyond the ``level`` percentile."""
    return count - math.ceil(count * level / 100.0 - 1e-9)


def tail(values: Sequence[float], wanted: float = 99.0) -> dict | None:
    """The highest reportable tail percentile at or below ``wanted``.

    Returns ``{"level", "value", "count", "beyond"}`` or ``None`` when not
    even the median has :data:`MIN_BEYOND` samples beyond it.
    """
    count = len(values)
    for level in TAIL_LEVELS:
        if level > wanted:
            continue
        beyond = samples_beyond(count, level)
        if beyond >= MIN_BEYOND:
            return {"level": level, "value": percentile(values, level),
                    "count": count, "beyond": beyond}
    return None


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def union_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total
