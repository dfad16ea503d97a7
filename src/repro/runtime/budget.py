"""Memory-budget accounting: deterministic out-of-memory reproduction.

The paper's evaluation is shaped by a 256 GB node: SPLATT dies first (its
CSF stores all ``N!``-expanded non-zeros and a full ``I × R^{N-1}`` output),
CSS later (full ``R^l`` intermediates), SymProp last. To reproduce those
"OOM" entries deterministically — independent of the actual RAM of the
machine running this reproduction — kernels *declare* their major
allocations against the run's :class:`MemoryBudget` before performing
them. Exceeding the budget raises :class:`MemoryLimitError`, which the
benchmark harness renders as "OOM", exactly like the paper's figures.

A budget reaches the kernels only as ``ExecContext.budget``: code
declares through :meth:`repro.runtime.context.ExecContext.request_bytes`
on the context it was given (or :func:`~repro.runtime.context.current_context`
in leaf code that has none). Usage::

    ctx = ExecContext(budget=MemoryBudget(gigabytes=4))
    y = s3ttmc(x, u, ctx=ctx)     # raises MemoryLimitError if too large

A budget without a limit only accounts (peak tracking); a run whose
context has no budget accounts nothing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..obs import trace as _trace

__all__ = ["MemoryLimitError", "MemoryBudget"]


class MemoryLimitError(MemoryError):
    """Raised when a declared allocation would exceed the active budget.

    Carries enough context for harness reporting: what was being allocated,
    how large, and against which limit.
    """

    def __init__(self, label: str, nbytes: int, limit: int, in_use: int):
        self.label = label
        self.nbytes = int(nbytes)
        self.limit = int(limit)
        self.in_use = int(in_use)
        super().__init__(
            f"allocation {label!r} of {nbytes / 2**30:.3f} GiB exceeds budget: "
            f"{in_use / 2**30:.3f} GiB in use of {limit / 2**30:.3f} GiB limit"
        )

    def __reduce__(self):
        args = (self.label, self.nbytes, self.limit, self.in_use)
        return type(self), args, self.__dict__


@dataclass
class MemoryBudget:
    """One run's memory accounting (thread-safe; shared by its workers).

    Parameters
    ----------
    limit_bytes:
        Hard cap; ``None`` means unlimited (accounting only).
    gigabytes:
        Convenience alternative to ``limit_bytes`` (GiB).
    """

    limit_bytes: Optional[int] = None
    gigabytes: Optional[float] = None
    in_use: int = 0
    peak: int = 0
    allocations: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.gigabytes is not None:
            if self.limit_bytes is not None:
                raise ValueError("pass either limit_bytes or gigabytes, not both")
            self.limit_bytes = int(self.gigabytes * 2**30)
        self._lock = threading.Lock()

    # -- accounting -------------------------------------------------------
    def request(self, nbytes: int, label: str = "array", *, collector=None) -> None:
        """Declare an allocation of ``nbytes``; raise if over the limit.

        ``collector`` (the run's :class:`~repro.obs.trace.TraceCollector`,
        or ``None``) receives the budget events and metrics.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        with self._lock:
            if self.limit_bytes is not None and self.in_use + nbytes > self.limit_bytes:
                if collector is not None:
                    _trace.event(
                        "budget.refused",
                        collector=collector,
                        label=label,
                        nbytes=nbytes,
                        in_use=self.in_use,
                        limit=self.limit_bytes,
                    )
                raise MemoryLimitError(label, nbytes, self.limit_bytes, self.in_use)
            self.in_use += nbytes
            self.peak = max(self.peak, self.in_use)
            self.allocations[label] = self.allocations.get(label, 0) + nbytes
            in_use, peak = self.in_use, self.peak
        if collector is not None:
            _trace.event(
                "budget.request",
                collector=collector,
                label=label,
                nbytes=nbytes,
                in_use=in_use,
            )
            collector.metrics.gauge("budget.peak_bytes").update_max(peak)
            # Delta update, not set(in_use): several budgets (or worker
            # threads) may report into one collector, and add() is the
            # form that stays correct without holding the budget lock.
            collector.metrics.gauge("budget.in_use_bytes").add(nbytes)
            collector.metrics.counter("budget.requests").inc()

    def release(self, nbytes: int, label: str = "array", *, collector=None) -> None:
        """Return previously requested bytes to the budget."""
        nbytes = int(nbytes)
        with self._lock:
            self.in_use = max(0, self.in_use - nbytes)
            if label in self.allocations:
                remaining = self.allocations[label] - nbytes
                if remaining <= 0:
                    del self.allocations[label]
                else:
                    self.allocations[label] = remaining
            in_use = self.in_use
        if collector is not None:
            _trace.event(
                "budget.release",
                collector=collector,
                label=label,
                nbytes=nbytes,
                in_use=in_use,
            )
            collector.metrics.gauge("budget.in_use_bytes").add(-nbytes)

    def assert_drained(self) -> None:
        """Raise if accounted bytes remain in use (kernel leak check).

        Every kernel pairs its requests with releases on all exit paths,
        so after any completed (or cleanly failed) run ``in_use`` must be
        back to zero. The verification suite calls this after every case;
        the error lists the labels still held, which names the leak.
        """
        with self._lock:
            if self.in_use:
                held = dict(self.allocations)
                raise RuntimeError(
                    f"memory budget not drained: {self.in_use} bytes still "
                    f"accounted after the run; held allocations: {held}"
                )

    def observe_peak(self, nbytes: int) -> None:
        """Fold an externally measured high-water mark into ``peak``.

        Used by the process execution backend: workers account against a
        mirrored budget in their own process and report their peak back,
        so the parent's ``peak`` reflects the whole run (see
        :mod:`repro.parallel.shm`).
        """
        with self._lock:
            self.peak = max(self.peak, int(nbytes))
