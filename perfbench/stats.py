"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, highest first.  Coarse on purpose: each
#: rung spans a decade of op counts (p90 holds from 100 to 9,999 ops),
#: so run-to-run changes in op count do not move a workload's tail to
#: another rung.
TAIL_LADDER = (99.9, 90.0)
#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[int, float]:
    """1-based nearest rank of ``pct`` and the value there."""
    # Rounded first: 99.9 / 100 * 10000 must be rank 9990, not 9991.
    rank = max(1, math.ceil(round(pct / 100.0 * len(sorted_values), 9)))
    return rank, sorted_values[rank - 1]


def tail(values: list[float]) -> tuple[float, int, float]:
    """``(percentile, rank, value)`` of the highest reportable tail.

    The highest percentile of :data:`TAIL_LADDER` with at least
    :data:`TAIL_BEYOND` samples beyond it.  With too few samples for any
    of them the median is returned (percentile 50), so a short run never
    pretends to have a tail.
    """
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        rank, value = nearest_rank(ordered, pct)
        if len(ordered) - rank >= TAIL_BEYOND:
            return pct, rank, value
    rank, value = nearest_rank(ordered, 50.0)
    return 50.0, rank, statistics.median(ordered)


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
