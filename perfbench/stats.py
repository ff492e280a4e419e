"""Small numeric helpers of the benchmark: hypervolume and percentiles."""

from __future__ import annotations

import math

TAIL_BEYOND = 10  # samples a reported tail percentile must have above it


def hypervolume(points, reference=(1.0, 1.0)) -> float:
    """Area dominated by ``points`` (both objectives minimised) up to ``reference``.

    A 2-D sweep: in ascending order of the first objective, each point that
    improves on the best second objective so far adds the strip between the
    two, out to the reference. Dominated and duplicate points add nothing.
    """
    ref_x, ref_y = reference
    area = 0.0
    best_y = ref_y
    for x, y in sorted(points):
        if x < ref_x and y < best_y:
            area += (ref_x - x) * (best_y - y)
            best_y = y
    return area


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile of ``n`` samples with TAIL_BEYOND samples above it.

    Returns 0 when ``n`` is too small for any percentile to qualify.
    """
    for p in range(99, 0, -1):
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            return p
    return 0
