"""Per-run execution context: the object every layer threads explicitly.

:class:`ExecContext` is the one way to configure a run — one object
owning

* the **memory budget** (``ctx.budget`` — the paper's OOM-reproduction
  device; Section VI's 256 GB node as a first-class per-run limit),
* the **trace collector and metrics registry** (``ctx.collector`` /
  ``ctx.metrics``),
* the **execution backend** (``serial`` / ``process``, created lazily
  and kept alive until :meth:`ExecContext.close`),
* the **plan cache** (chunk plans and partitions, weakly keyed by tensor
  — no longer attributes stapled onto tensor objects), and
* the **RNG seed** (deterministic replay: seed + budget + backend travel
  together).

``ctx.budget`` and ``ctx.collector`` are the only budget and collector a
run accounts and traces into; ``None`` means none. The only ambient
state is the thread's *active* context: :func:`current_context` returns
the innermost context scoped on this thread (``with ctx:`` or
:meth:`ExecContext.scope`), falling back to a process-default context
with no budget and no collector whose plan cache is process-wide. Code
that has a ``ctx`` uses it; leaf code without one (format constructors,
dense reconstruction) declares through ``current_context()``.

Usage::

    from repro.runtime import ExecContext, MemoryBudget
    from repro.obs import TraceCollector

    ctx = ExecContext(
        budget=MemoryBudget(gigabytes=4),
        collector=TraceCollector(),
        execution="process",
        n_workers=8,
        seed=42,
    )
    with ctx:                       # activate + close backend on exit
        result = hooi(x, rank=8, ctx=ctx)
    ctx.collector.spans             # only this run's spans
    ctx.budget.peak                 # only this run's peak
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional

import numpy as np

from ..obs import trace as _trace
from ..obs.profile import SamplingProfiler
from .budget import MemoryBudget
from .faults import DEFAULT_FALLBACK, EXECUTIONS, FallbackPolicy, FaultInjector
from .health import CancelToken, DeadlineExceededError, RunCancelledError

__all__ = [
    "COMPILED_TABLE_CACHE_CAP",
    "EXECUTIONS",
    "ExecContext",
    "PlanCache",
    "check_sharding",
    "current_context",
    "default_context",
    "reset_thread_runtime_state",
    "resolve_context",
    "tensor_generation",
]


def check_sharding(sharding: str) -> None:
    """Reject any tensor distribution but ``"owned"``.

    Parallel runs always give each worker a disjoint
    :class:`~repro.parallel.sharding.TensorShard`. The ``sharding``
    keyword survives on :class:`ExecContext` and
    :func:`~repro.parallel.sharding.shard_resident_bytes` only so that
    callers passing ``"owned"`` keep working; anything else raises
    ``ValueError`` rather than silently running a different layout.
    """
    if sharding != "owned":
        raise ValueError(
            f"sharding={sharding!r} is not supported: the broadcast "
            "distribution was removed and parallel runs always use owned "
            "shards"
        )


#: Cap on cached compiled-kernel table sets per :class:`PlanCache` — the
#: keys are pattern stamps (not weakly referenceable), so the store is
#: bounded by eviction instead of garbage collection.
COMPILED_TABLE_CACHE_CAP = 64


# ---------------------------------------------------------------------------
# Tensor generations
# ---------------------------------------------------------------------------

_GEN_LOCK = threading.Lock()
_GEN_IDS: "weakref.WeakKeyDictionary[object, int]" = weakref.WeakKeyDictionary()
_NEXT_GEN = [0]


def tensor_generation(tensor: object) -> int:
    """Process-unique, monotonically assigned generation id for ``tensor``.

    Unlike ``id()``, a generation is never reused after the tensor dies,
    so it is a safe cache/invalidation key across process boundaries —
    the process backend keys its worker-side plan caches on it.
    """
    with _GEN_LOCK:
        gen = _GEN_IDS.get(tensor)
        if gen is None:
            _NEXT_GEN[0] += 1
            gen = _NEXT_GEN[0]
            _GEN_IDS[tensor] = gen
        return gen


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


class PlanCache:
    """Per-context store for chunk plans and non-zero partitions.

    Entries are weakly keyed by the tensor object, so plans die with their
    tensor instead of leaking; within one tensor the inner dicts are keyed
    by ``(partition, memoize)`` (chunk plans) and ``(n_chunks, rank)``
    (partitions) exactly as the old tensor-attribute caches were. Plans
    are pattern-only (they never depend on factor values), so sharing a
    cache between contexts is always *correct* — separate caches are
    about lifecycle isolation, not numerics.

    Compiled-kernel gather tables (:mod:`repro.core.compile`) are stored
    separately in a bounded LRU keyed by the plan's pattern stamp plus the
    kernel-spec axes — stamp keys cannot be weakly held, so an explicit
    cap (:data:`COMPILED_TABLE_CACHE_CAP`) bounds the store instead.
    """

    def __init__(self) -> None:
        self._chunk_plans: "weakref.WeakKeyDictionary[object, dict]" = (
            weakref.WeakKeyDictionary()
        )
        self._partitions: "weakref.WeakKeyDictionary[object, dict]" = (
            weakref.WeakKeyDictionary()
        )
        self._compiled: "OrderedDict[tuple, object]" = OrderedDict()
        self.compiled_hits = 0
        self.compiled_misses = 0

    def chunk_plans(self, tensor: object) -> dict:
        """The (mutable) chunk-plan dict for ``tensor``."""
        return self._per_tensor(self._chunk_plans, tensor)

    def partitions(self, tensor: object) -> dict:
        """The (mutable) balanced-partition dict for ``tensor``."""
        return self._per_tensor(self._partitions, tensor)

    @staticmethod
    def _per_tensor(store: "weakref.WeakKeyDictionary", tensor: object) -> dict:
        try:
            cache = store.get(tensor)
        except TypeError:  # un-weakref-able / unhashable: no caching
            return {}
        if cache is None:
            cache = {}
            try:
                store[tensor] = cache
            except TypeError:
                return {}
        return cache

    def compiled_get(self, key: tuple):
        """Cached compiled-kernel tables for ``key``, or ``None`` (LRU)."""
        entry = self._compiled.get(key)
        if entry is None:
            self.compiled_misses += 1
            return None
        self._compiled.move_to_end(key)
        self.compiled_hits += 1
        return entry

    def compiled_put(self, key: tuple, tables: object) -> None:
        """Store compiled-kernel tables, evicting least-recently-used."""
        self._compiled[key] = tables
        self._compiled.move_to_end(key)
        while len(self._compiled) > COMPILED_TABLE_CACHE_CAP:
            self._compiled.popitem(last=False)

    @property
    def n_compiled(self) -> int:
        """Number of cached compiled-kernel table sets."""
        return len(self._compiled)

    @property
    def n_tensors(self) -> int:
        """Number of tensors with live cached state (either kind)."""
        return len(set(self._chunk_plans) | set(self._partitions))

    def clear(self) -> None:
        """Drop all cached plans, partitions and compiled tables."""
        self._chunk_plans.clear()
        self._partitions.clear()
        self._compiled.clear()


# ---------------------------------------------------------------------------
# The context
# ---------------------------------------------------------------------------


class ExecContext:
    """One run's execution environment, threaded explicitly through layers.

    Parameters
    ----------
    budget:
        The run's :class:`~repro.runtime.budget.MemoryBudget`, or
        ``None`` for no accounting.
    collector:
        The run's :class:`~repro.obs.trace.TraceCollector`, or ``None``
        for no tracing.
    execution:
        ``"serial"`` (in line on the calling thread) or ``"process"``
        (worker processes, owned by this context once adopted).
    n_workers:
        Worker count for parallel executions (``None`` = core count).
    sharding:
        Must be ``"owned"`` (the default): parallel runs always give each
        worker a disjoint tensor shard (see :mod:`repro.parallel.sharding`).
        Any other value raises ``ValueError``; the keyword stays only for
        existing callers.
    seed:
        Default RNG seed for drivers invoked with ``seed=None`` —
        deterministic replay travels with the context.
    plans:
        Plan cache; defaults to a fresh private :class:`PlanCache`.
        :meth:`derive` shares the parent's.
    faults:
        Optional :class:`~repro.runtime.faults.FaultInjector` — the
        run's deterministic fault plan; backends arm it at named sites.
        ``None`` (the default) injects nothing.
    fallback:
        Optional :class:`~repro.runtime.faults.FallbackPolicy` governing
        retries, respawns, deadlines, OOM bisection and backend
        degradation. ``None`` uses the shared
        :data:`~repro.runtime.faults.DEFAULT_FALLBACK`.
    profiler:
        Optional :class:`~repro.obs.profile.SamplingProfiler`. The
        context *owns* it like the backend: started when the context is
        entered, stopped (and flushed to its path) in :meth:`close`.
        Not inherited by :meth:`derive` children — the
        sampler observes every thread of the process already, and a
        child's ``close()`` must not stop the parent's profiler.
    deadline_seconds:
        Optional wall-clock budget for the whole run, measured from
        context construction. Backends and decomposition loops call
        :meth:`check_health` at chunk/iteration boundaries; past the
        deadline it raises
        :class:`~repro.runtime.health.DeadlineExceededError`. Children
        from :meth:`derive` inherit the parent's
        *absolute* deadline, not a fresh budget.
    cancel:
        Optional :class:`~repro.runtime.health.CancelToken` for
        cooperative cancellation — cancelling it (from any thread)
        makes :meth:`check_health` raise
        :class:`~repro.runtime.health.RunCancelledError` at the next
        boundary. Children share the parent's token by default.

    The context is a context manager: ``with ctx:`` activates it on the
    current thread (:func:`current_context` returns it) and closes the
    owned backend on exit. For activation without lifecycle teardown use
    :meth:`scope`.
    """

    def __init__(
        self,
        *,
        budget: Optional[MemoryBudget] = None,
        collector: Optional["_trace.TraceCollector"] = None,
        execution: str = "serial",
        n_workers: Optional[int] = None,
        sharding: str = "owned",
        seed: Optional[int] = None,
        plans: Optional[PlanCache] = None,
        faults: Optional[FaultInjector] = None,
        fallback: Optional[FallbackPolicy] = None,
        profiler: Optional["SamplingProfiler"] = None,
        deadline_seconds: Optional[float] = None,
        cancel: Optional[CancelToken] = None,
    ) -> None:
        self.budget = budget
        self.collector = collector
        self.execution = execution
        self.n_workers = None if n_workers is None else int(n_workers)
        check_sharding(sharding)
        self.seed = seed
        self.plans = plans if plans is not None else PlanCache()
        self.faults = faults
        self.fallback = fallback
        self.profiler = profiler
        if deadline_seconds is not None:
            deadline_seconds = float(deadline_seconds)
            if deadline_seconds <= 0:
                raise ValueError("deadline_seconds must be positive")
        self.deadline_seconds = deadline_seconds
        #: Absolute monotonic-clock instant the deadline trips at; the
        #: clock starts at construction and children inherit it as-is.
        self._deadline_at = (
            None
            if deadline_seconds is None
            else time.monotonic() + deadline_seconds
        )
        self.cancel_token = cancel
        #: Unique token naming this run. Namespaces the run's shared-memory
        #: segments (see :mod:`repro.parallel.shm`) and seeds health-driven
        #: reseeds of seedless runs (see
        #: :func:`repro.decomp.restarts.reseed_seed`), so concurrent runs in
        #: one process can never collide or correlate. :meth:`derive` mints
        #: a fresh token (a child job is a new run).
        self.run_token = os.urandom(4).hex()
        self._health_tripped = False
        self._backend = None
        self._entered: List[Any] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        bits = [f"execution={self.execution!r}"]
        if self.n_workers is not None:
            bits.append(f"n_workers={self.n_workers}")
        if self.budget is not None:
            bits.append(f"budget={self.budget.limit_bytes}")
        if self.collector is not None:
            bits.append("traced")
        if self.seed is not None:
            bits.append(f"seed={self.seed}")
        return f"ExecContext({', '.join(bits)})"

    # -- budget ------------------------------------------------------------

    def request_bytes(self, nbytes: int, label: str = "array") -> None:
        """Declare ``nbytes`` against this run's budget (raises
        :class:`~repro.runtime.budget.MemoryLimitError` over its limit).

        Without a budget nothing is accounted; a collector still records
        the declaration as a ``budget.request`` event.
        """
        if self.budget is not None:
            self.budget.request(nbytes, label, collector=self.collector)
        elif self.collector is not None:
            self.event("budget.request", label=label, nbytes=int(nbytes))

    def release_bytes(self, nbytes: int, label: str = "array") -> None:
        """Release ``nbytes`` from this run's budget."""
        if self.budget is not None:
            self.budget.release(nbytes, label, collector=self.collector)
        elif self.collector is not None:
            self.event("budget.release", label=label, nbytes=int(nbytes))

    # -- tracing -----------------------------------------------------------

    @property
    def metrics(self):
        """Metrics registry of this run's collector, or ``None``."""
        return self.collector.metrics if self.collector is not None else None

    def span(self, name: str, *, parent_id: Optional[int] = None, **attrs: Any):
        """Open a span routed into this run's collector (no-op if none)."""
        return _trace.span(
            name, parent_id=parent_id, collector=self.collector, **attrs
        )

    def event(self, name: str, *, parent_id: Optional[int] = None, **attrs: Any):
        """Record a point event routed into this run's collector."""
        _trace.event(name, parent_id=parent_id, collector=self.collector, **attrs)

    # -- RNG ---------------------------------------------------------------

    def rng(self) -> np.random.Generator:
        """Fresh generator from this context's seed (entropy if unset)."""
        return np.random.default_rng(self.seed)

    # -- resilience --------------------------------------------------------

    def effective_fallback(self) -> FallbackPolicy:
        """This context's fallback policy, else the shared default."""
        return self.fallback if self.fallback is not None else DEFAULT_FALLBACK

    def remaining_seconds(self) -> Optional[float]:
        """Wall-clock seconds left before the run deadline (may be
        negative once expired), or ``None`` when no deadline is set."""
        if self._deadline_at is None:
            return None
        return self._deadline_at - time.monotonic()

    def _health_trip(self, kind: str, site: str) -> None:
        """Emit the ``health.<kind>`` event/counter once per context.

        ``check_health`` keeps raising on every later call, but only the
        first trip is an observable event — retries of the same trip
        would inflate counters.
        """
        if self._health_tripped:
            return
        self._health_tripped = True
        self.event(f"health.{kind}", site=site)
        metrics = self.metrics
        if metrics is not None:
            metrics.counter(f"health.{kind}").inc()

    def check_health(self, site: str = "") -> None:
        """Cooperative cancellation / deadline checkpoint.

        Called between chunks (all backends), between decomposition
        iterations, and inside the process-backend supervisor loop.
        Raises :class:`~repro.runtime.health.RunCancelledError` when the
        run's :class:`~repro.runtime.health.CancelToken` (or any of its
        ancestors) is cancelled, and
        :class:`~repro.runtime.health.DeadlineExceededError` once the
        run's wall-clock budget is spent. Cheap when neither is
        configured — two attribute reads, no clock call.
        """
        token = self.cancel_token
        if token is not None and token.cancelled:
            self._health_trip("cancelled", site)
            raise RunCancelledError(token.reason, site)
        if self._deadline_at is not None and time.monotonic() >= self._deadline_at:
            self._health_trip("deadline", site)
            raise DeadlineExceededError(self.deadline_seconds, site)

    # -- validation --------------------------------------------------------

    def validate(
        self, *, kernel: str = "symprop", intermediate: str = "compact"
    ) -> None:
        """Check that this context's execution settings suit a run.

        Single home for constraints previously scattered across
        ``resolve_backend`` and deep engine failures: unknown execution
        names, ``n_workers`` without a parallel execution, and parallel
        runs of kernels/layouts that have no chunked form (only the
        symprop kernel with compact intermediates does).
        """
        if self.execution not in EXECUTIONS:
            raise ValueError(
                f"unknown execution {self.execution!r}; "
                f"expected one of {EXECUTIONS}"
            )
        if self.execution == "serial":
            if self.n_workers is not None:
                raise ValueError("n_workers requires execution='process'")
            return
        if kernel != "symprop":
            raise ValueError(
                f"execution={self.execution!r} requires kernel='symprop', "
                f"got {kernel!r}"
            )
        if intermediate != "compact":
            raise ValueError(
                f"execution={self.execution!r} requires intermediate='compact' "
                f"(the full {intermediate!r} layout has no chunked parallel "
                f"form), got intermediate={intermediate!r}"
            )

    # -- backend lifecycle -------------------------------------------------

    @property
    def backend(self):
        """The owned :class:`~repro.parallel.backends.Backend`, if any."""
        return self._backend

    def adopt_backend(self, backend):
        """Take ownership of ``backend``: reused until :meth:`close`.

        The context deliberately does not *create* backends (that would
        invert the layering — ``runtime`` sits below ``parallel``);
        creation lives in :func:`repro.decomp._sweep.acquire_backend`
        and :func:`repro.parallel.executor.parallel_s3ttmc`, which adopt
        what they make.
        """
        if self._backend is not None and self._backend is not backend:
            raise RuntimeError(
                "context already owns a backend; close() it before adopting "
                "another"
            )
        self._backend = backend
        return backend

    def release_backend(self):
        """Detach and return the owned backend without closing it.

        The inverse of :meth:`adopt_backend`, for pool owners (the serve
        layer) that lend a persistent backend to a per-job context: the
        job releases it on completion so :meth:`close` cannot tear down
        a backend the pool still owns. Returns ``None`` if nothing was
        adopted.
        """
        backend, self._backend = self._backend, None
        return backend

    def close(self) -> None:
        """Close the owned backend and stop the owned profiler
        (idempotent); the context stays usable — the next parallel run
        lazily recreates a backend."""
        backend, self._backend = self._backend, None
        if backend is not None:
            backend.close()
        if self.profiler is not None:
            self.profiler.stop()

    # -- derivation --------------------------------------------------------

    def derive(
        self,
        *,
        budget: Optional[MemoryBudget] = None,
        collector: Optional["_trace.TraceCollector"] = None,
        seed: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        cancel: Optional[CancelToken] = None,
    ) -> "ExecContext":
        """Child context sharing budget/collector/plan cache and execution
        settings, with its own backend slot.

        A ``hooi``/``hoqri`` call without ``ctx=`` outside any active
        context derives an ephemeral child of the default context, runs
        on it, and closes it — while plans persist in the shared cache
        across calls. Execution settings are not overridable here: a run
        that executes differently is configured with its own
        :class:`ExecContext`.

        Resilience state is inherited: the child shares the parent's
        :class:`~repro.runtime.health.CancelToken` (cancelling the run
        cancels derived work) and the parent's *absolute* deadline —
        deriving does not restart the clock. Pass ``deadline_seconds=``
        to arm a fresh budget or ``cancel=`` for an independent token
        (e.g. ``parent.cancel_token.derive()``).

        Multi-tenant isolation: pass ``budget=`` / ``collector=`` to give
        the child its *own* accounting instead of sharing the parent's —
        the serve layer derives one such child per job so a tenant
        tripping its limit or deadline cannot disturb a sibling's budget
        or trace. The child always gets a fresh ``run_token``.
        """
        child = ExecContext(
            budget=budget if budget is not None else self.budget,
            collector=collector if collector is not None else self.collector,
            execution=self.execution,
            n_workers=self.n_workers,
            seed=seed if seed is not None else self.seed,
            plans=self.plans,
            faults=self.faults,
            fallback=self.fallback,
            deadline_seconds=(
                deadline_seconds
                if deadline_seconds is not None
                else self.deadline_seconds
            ),
            cancel=cancel if cancel is not None else self.cancel_token,
        )
        if deadline_seconds is None:
            child._deadline_at = self._deadline_at
        return child

    # -- activation --------------------------------------------------------

    @contextmanager
    def scope(self) -> Iterator["ExecContext"]:
        """Activate on the current thread, without lifecycle teardown:
        :func:`current_context` returns this context inside. Reentrant
        and cheap when already active."""
        stack = _context_stack()
        pushed = not (stack and stack[-1] is self)
        if pushed:
            stack.append(self)
        try:
            yield self
        finally:
            if pushed and stack and stack[-1] is self:
                stack.pop()

    def __enter__(self) -> "ExecContext":
        cm = self.scope()
        cm.__enter__()
        self._entered.append(cm)
        if self.profiler is not None:
            self.profiler.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._entered:
            cm = self._entered.pop()
            cm.__exit__(*exc)
        if not self._entered:
            self.close()


# ---------------------------------------------------------------------------
# The active context
# ---------------------------------------------------------------------------

_TLS = threading.local()


def _context_stack() -> List[ExecContext]:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = []
        _TLS.stack = stack
    return stack


#: The process default: no budget, no collector, serial; its plan cache
#: is the process-wide one (the successor of the old tensor-attribute
#: caches), so ctx-less calls keep reusing plans.
_DEFAULT = ExecContext()


def default_context() -> ExecContext:
    """The process-default context :func:`current_context` falls back to.

    Callers that would adopt a backend onto a context check for it: a
    pool pinned on the default would outlive every run.
    """
    return _DEFAULT


def current_context() -> ExecContext:
    """Innermost active context on this thread, else the process default.

    Never returns ``None`` — code can always thread the result.
    """
    stack = _context_stack()
    return stack[-1] if stack else _DEFAULT


def resolve_context(ctx: Optional[ExecContext]) -> ExecContext:
    """``ctx`` itself, or :func:`current_context` when ``None``.

    The one-line idiom every ``ctx:``-accepting entry point starts with.
    """
    return ctx if ctx is not None else current_context()


def reset_thread_runtime_state() -> None:
    """Forget the inherited active-context and open-span stacks (fork
    safety).

    A ``fork``-started process clones the parent's thread-local context
    and span stacks. Accounting or tracing against those clones is
    silently invisible to the parent — worse, a cloned budget can
    spuriously refuse worker allocations. Process workers call this once
    at startup so they run against the process default; explicit state
    still arrives via the job's serialized budget/context.
    """
    _TLS.__dict__.clear()
    _trace._STACKS.__dict__.clear()
