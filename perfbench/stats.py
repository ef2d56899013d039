"""The benchmark's own arithmetic: medians, tails, headroom, failure share."""

from __future__ import annotations

import math
import statistics

#: percentiles tried for the tail, highest first
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

#: samples that must lie beyond a percentile before it is reported
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(samples):
    """Highest percentile of TAIL_LADDER with TAIL_BEYOND samples past it.

    Uses the nearest-rank percentile: rank r = ceil(p/100 * n), value the
    r-th smallest sample, and n - r samples beyond it.  Returns
    (percentile, value, samples beyond, sample count), or None when no
    percentile of the ladder has enough samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        # rounded first, so that 99.9% of 10000 is rank 9990, not 9991
        rank = max(1, math.ceil(round(p / 100.0 * n, 6)))
        if n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1], n - rank, n
    return None


def headroom_min_dex(checks):
    """min log10(bound / residual) over the checks, in decades.

    ``checks`` holds (residual, bound) pairs.  Only checks with a positive
    residual and a positive bound count: a zero or negative residual (a
    margin that is already inside the bound) has no finite headroom, and
    a zero bound admits only zero.  A failed check counts, with a
    negative headroom.  None when nothing counts.
    """
    dex = [math.log10(b / r) for r, b in checks if r > 0.0 and b > 0.0]
    return min(dex) if dex else None


def failed_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no operation attempted")
    return failed / attempted
