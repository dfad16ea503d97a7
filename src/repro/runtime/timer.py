"""Phase timers for runtime breakdowns (Figure 8).

A :class:`PhaseTimer` accumulates wall-clock time per named phase across
repeated entries — e.g. "s3ttmc", "svd", "qr", "core", "objective" inside a
Tucker iteration loop — and reports totals and percentage breakdowns.

The timer is also a thin *consumer* of the tracer: every ``phase(name)``
scope opens a ``phase:<name>`` span in the timer's ``collector`` (a no-op
when it is ``None``), so the ``repro.obs summarize`` rollup and the timer
report the same numbers. The code that owns the run sets ``collector``
to the run's ``ExecContext.collector``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from ..obs import trace as _trace

__all__ = ["PhaseTimer"]


@dataclass
class PhaseTimer:
    """Accumulates per-phase wall time.

    Example::

        timer = PhaseTimer()
        with timer.phase("s3ttmc"):
            ...
        timer.breakdown()   # {"s3ttmc": 100.0}
    """

    totals: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    #: Receives the ``phase:<name>`` spans; set by the run driving the timer.
    collector: Optional[_trace.TraceCollector] = field(
        default=None, repr=False, compare=False
    )

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        # Timer and trace span share the same two clock readings, so the
        # `repro.obs summarize` rollup agrees with breakdown() exactly.
        live = _trace.begin_span(
            "phase:" + name, {"phase": name}, collector=self.collector
        )
        start = live.start if live is not None else time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.totals[name] = self.totals.get(name, 0.0) + (end - start)
            self.counts[name] = self.counts.get(name, 0) + 1
            if live is not None:
                _trace.finish_span(live, end)

    def add(self, name: str, seconds: float) -> None:
        """Record externally measured time under ``name``."""
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + 1

    @property
    def total(self) -> float:
        return sum(self.totals.values())

    def breakdown(self) -> Dict[str, float]:
        """Percentage of total time per phase (sums to 100 when non-empty)."""
        total = self.total
        if total <= 0.0:
            return {name: 0.0 for name in self.totals}
        return {name: 100.0 * t / total for name, t in self.totals.items()}

