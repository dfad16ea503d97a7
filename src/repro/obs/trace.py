"""Span-based tracing into an explicit collector.

The tracer answers the question the paper's whole evaluation revolves
around — *where did the time and memory go?* — with hierarchical spans:
a ``hooi`` run contains iteration spans, iterations contain phase spans,
phases contain per-lattice-level spans, levels carry node/edge/entry
attributes. Point-in-time ``event`` records (budget requests/releases)
interleave with spans.

Design constraints, in order:

1. **One route to a collector.** Every record names its collector: a
   run's is ``ExecContext.collector`` (:meth:`ExecContext.span
   <repro.runtime.context.ExecContext.span>` passes it). ``collector=None``
   means tracing is off — there is no installed or ambient collector, so
   two runs in one process can never trace into each other's records.
2. **Near-zero overhead when disabled.** Kernels call :func:`span` on hot
   paths (once per lattice level per batch). Without a collector the call
   is one ``is None`` test and the return of a shared no-op singleton —
   no allocation, no clock read.
3. **Thread-correct nesting.** The *open-span stack* is thread-local, so
   concurrent threads never corrupt each other's parent chains; a span's
   parent is the innermost span open on its own thread.

Usage::

    from repro.obs import TraceCollector, span

    col = TraceCollector()
    with span("s3ttmc", collector=col, kernel="symprop"):
        ...
    col.spans   # finished Span records, tree via span_id/parent_id
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .metrics import MetricsRegistry

__all__ = [
    "Span",
    "TraceEvent",
    "TraceCollector",
    "span",
    "begin_span",
    "finish_span",
    "event",
    "open_span_depth",
    "snapshot_open_stacks",
]


@dataclass(eq=False)  # identity semantics: attrs may hold non-comparable values
class Span:
    """One finished (or open) span: a named, attributed time interval."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: float = 0.0
    thread: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return max(0.0, self.end - self.start)


@dataclass
class TraceEvent:
    """A point-in-time record (e.g. one budget request)."""

    name: str
    timestamp: float
    parent_id: Optional[int]
    thread: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)


class TraceCollector:
    """Receives the spans/events routed to it (see the module docs).

    Attributes
    ----------
    spans:
        Finished spans in completion order (children precede parents).
    events:
        Point events in emission order.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` scoped to this
        collector's lifetime (per-level flop counters, budget gauges, …).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.events: List[TraceEvent] = []
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._next_id = 0

    # -- record sinks (called by the span machinery) ----------------------
    def allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def record_span(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def record_event(self, evt: TraceEvent) -> None:
        with self._lock:
            self.events.append(evt)

    # -- queries ----------------------------------------------------------
    def check_consistency(self) -> List[str]:
        """Structural invariants of the recorded trace; returns problems.

        Checks that span ids are unique, every span finished after it
        started, and every span/event parent id refers to a recorded span.
        An empty list means the trace is structurally sound. Intended for
        *post-run* validation (``repro.verify`` runs it after every case);
        mid-run, parents may still be open and legitimately unrecorded.
        """
        with self._lock:
            spans = list(self.spans)
            events = list(self.events)
        problems: List[str] = []
        ids = [s.span_id for s in spans]
        id_set = set(ids)
        if len(id_set) != len(ids):
            problems.append("duplicate span ids recorded")
        for s in spans:
            if s.end < s.start:
                problems.append(f"span {s.name!r} (id {s.span_id}) ends before it starts")
            if s.parent_id is not None and s.parent_id not in id_set:
                problems.append(
                    f"span {s.name!r} (id {s.span_id}) has unrecorded "
                    f"parent {s.parent_id}"
                )
        for e in events:
            if e.parent_id is not None and e.parent_id not in id_set:
                problems.append(
                    f"event {e.name!r} has unrecorded parent {e.parent_id}"
                )
        return problems

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def children(self, span_id: int) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def find(self, name: str) -> List[Span]:
        """The recorded spans called ``name``.

        Kept for the tests that read traces by span name, among them
        ``tests/test_context.py`` and ``tests/test_obs.py``.
        """
        return [s for s in self.spans if s.name == name]


_STACKS = threading.local()

#: Registry of every thread's open-span stack, keyed by thread ident —
#: the view the sampling profiler (:mod:`repro.obs.profile`) reads from
#: its own thread. Entries are the *same list objects* the owner threads
#: mutate; readers must copy under the GIL (``list(stack)``) and tolerate
#: momentary inconsistency. Registered once per thread (first ``_stack()``
#: call), so the hot path pays nothing.
_STACK_REGISTRY: Dict[int, List[Span]] = {}
_REGISTRY_LOCK = threading.Lock()


def _stack() -> List[Span]:
    stack = getattr(_STACKS, "stack", None)
    if stack is None:
        stack = []
        _STACKS.stack = stack
        with _REGISTRY_LOCK:
            _STACK_REGISTRY[threading.get_ident()] = stack
    return stack


def snapshot_open_stacks() -> Dict[str, List[str]]:
    """Open-span names per live thread, outermost first.

    A racy-but-safe snapshot for the sampling profiler: each stack is
    copied in one ``list()`` call (atomic under the GIL), so a sample
    taken mid-push/pop sees the stack either before or after the
    mutation, never a torn state. Threads with no open spans are omitted;
    registry entries of dead threads are pruned as they are discovered.
    """
    alive = {t.ident: t.name for t in threading.enumerate()}
    with _REGISTRY_LOCK:
        items = list(_STACK_REGISTRY.items())
    out: Dict[str, List[str]] = {}
    dead = []
    for ident, stack in items:
        name = alive.get(ident)
        if name is None:
            dead.append(ident)
            continue
        names = [s.name for s in list(stack)]
        if names:
            out[name] = names
    if dead:
        with _REGISTRY_LOCK:
            for ident in dead:
                _STACK_REGISTRY.pop(ident, None)
    return out


def open_span_depth() -> int:
    """Number of spans still open on *this* thread's stack.

    Zero after any balanced run — a non-zero value after a kernel call
    returned (or raised) means a span was opened without being finished,
    which corrupts the parentage of everything recorded afterwards. Used
    by the ``repro.verify`` span-balance invariant.
    """
    return len(_stack())


class _NullSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    @property
    def attrs(self) -> Dict[str, Any]:
        return {}


_NULL_SPAN = _NullSpan()


def begin_span(
    name: str,
    attrs: Optional[Dict[str, Any]] = None,
    *,
    collector: Optional[TraceCollector] = None,
) -> Optional[Span]:
    """Open a span in ``collector`` imperatively; returns ``None`` when
    ``collector`` is ``None`` (tracing off).

    For callers that need the span's exact clock readings (e.g.
    :class:`repro.runtime.timer.PhaseTimer`, whose totals must agree with
    the trace rollup to the clock tick). Pair with :func:`finish_span`.
    """
    if collector is None:
        return None
    stack = _stack()
    s = Span(
        name=name,
        span_id=collector.allocate_id(),
        parent_id=stack[-1].span_id if stack else None,
        start=time.perf_counter(),
        thread=threading.current_thread().name,
        attrs=attrs if attrs is not None else {},
    )
    s._collector = collector  # type: ignore[attr-defined]
    stack.append(s)
    return s


def finish_span(s: Span, end: Optional[float] = None) -> None:
    """Close a span from :func:`begin_span`, optionally at a caller-read
    ``perf_counter`` timestamp (shared-clock agreement)."""
    s.end = end if end is not None else time.perf_counter()
    stack = _stack()
    if stack and stack[-1] is s:
        stack.pop()
    elif s in stack:  # tolerate misnested exits rather than corrupting
        stack.remove(s)
    s._collector.record_span(s)  # type: ignore[attr-defined]


class _LiveSpan:
    """Context manager materializing one :class:`Span` into a collector."""

    __slots__ = ("_collector", "span", "_name", "_attrs")

    def __init__(
        self, collector: TraceCollector, name: str, attrs: Dict[str, Any]
    ) -> None:
        self._collector = collector
        self._name = name
        self._attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        s = begin_span(self._name, self._attrs, collector=self._collector)
        assert s is not None  # a collector is set: begin_span never bails
        self.span = s
        return s

    def __exit__(self, *exc) -> bool:
        s = self.span
        assert s is not None
        finish_span(s)
        return False


def span(name: str, *, collector: Optional[TraceCollector] = None, **attrs: Any):
    """Open a span in ``collector`` (a no-op when it is ``None``), child
    of this thread's innermost open span."""
    if collector is None:
        return _NULL_SPAN
    return _LiveSpan(collector, name, attrs)


def event(
    name: str, *, collector: Optional[TraceCollector] = None, **attrs: Any
) -> None:
    """Record a point-in-time event in ``collector`` (a no-op when it is
    ``None``), parented like :func:`span`."""
    if collector is None:
        return
    stack = _stack()
    collector.record_event(
        TraceEvent(
            name=name,
            timestamp=time.perf_counter(),
            parent_id=stack[-1].span_id if stack else None,
            thread=threading.current_thread().name,
            attrs=attrs,
        )
    )
