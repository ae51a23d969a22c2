"""Small statistics helpers shared by estimators, reports and tests."""

from __future__ import annotations

import math
from collections import Counter


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """3-sigma Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = 3.0
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def tv_distance(a: Counter, b: Counter) -> float:
    """Total-variation distance between two empirical distributions."""
    na, nb = sum(a.values()), sum(b.values())
    if na == 0 or nb == 0:
        raise ValueError("empty sample")
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a[k] / na - b[k] / nb) for k in keys)
