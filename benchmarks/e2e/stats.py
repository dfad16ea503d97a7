"""Sample summaries and failure counting shared by the runner, ``compare.py``
and the tests.

Timings are reported as a median plus the *tail*: the highest percentile
that still has at least :data:`MIN_BEYOND` samples beyond it, so a tail
value never rests on a handful of outliers. Below :data:`MIN_TAIL_SAMPLES`
samples that percentile would sit under the 90th (with eleven samples it
is the minimum), so small samples report their maximum instead.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10
#: Fewest samples whose tail is a percentile rather than the maximum.
MIN_TAIL_SAMPLES = 10 * MIN_BEYOND


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least
    :data:`MIN_BEYOND` samples above it (nearest rank).

    The sample at 1-based rank ``k`` has ``n - k`` samples beyond it, so the
    answer is rank ``n - MIN_BEYOND``: with 500 samples that is the 490th,
    the 98th percentile. With fewer than :data:`MIN_TAIL_SAMPLES` samples
    the maximum is returned as percentile 100.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("tail of an empty sample")
    if len(xs) < MIN_TAIL_SAMPLES:
        return float(xs[-1]), 100.0
    k = len(xs) - MIN_BEYOND
    return float(xs[k - 1]), 100.0 * k / len(xs)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them (a single value is its own quartiles)."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


@dataclass
class Tally:
    """Attempted and failed operations of one run.

    Every solve, served job and output check is one attempt; a solve or job
    that raises, and a check that does not hold, is one failure.
    ``failed_share`` is their ratio.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
