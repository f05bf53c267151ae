"""Order statistics with the benchmark's sample-count rule."""

from __future__ import annotations

import math
from typing import Sequence

MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100], of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def supported(n: int, q: float) -> bool:
    """A percentile is reported only with at least MIN_BEYOND samples above it."""
    return n * (100.0 - q) / 100.0 >= MIN_BEYOND
