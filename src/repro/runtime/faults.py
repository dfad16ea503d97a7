"""Fault model: deterministic fault injection and degradation policies.

The paper's headline runs are long multi-iteration HOOI/HOQRI sweeps —
exactly the regime where a single worker crash, hang, out-of-memory
chunk, or corrupted partial would otherwise kill hours of work. This
module is the *policy* half of the fault-tolerance layer (the
*mechanism* half — supervision, retry, OOM bisection — lives in
:mod:`repro.parallel.backends`):

* :class:`FaultSpec` / :class:`FaultInjector` — a seeded, deterministic
  fault-injection framework. Injectors are configured on the
  :class:`~repro.runtime.context.ExecContext` (``ctx.faults``) and fire
  at *named sites* inside backends and workers (today: ``"chunk"``, one
  arming opportunity per chunk evaluation attempt). Because arming is
  centralized in the driving process and counted per site, a fault plan
  replays identically across runs — the backbone of the equivalence
  tests that assert a faulted run converges to the exact same factors
  as a clean one.
* :class:`FallbackPolicy` — how much resilience a run wants: per-chunk
  retry ceiling and backoff, worker respawn ceiling, per-chunk deadline
  (hang detection via heartbeats), OOM bisection depth, and the
  degradation chain (``process → serial``) taken when a backend is
  declared unhealthy.
* The failure taxonomy: :class:`InjectedFault` (test-only marker),
  :class:`WorkerCrashError` (a worker died or simulated dying) and
  :class:`BackendUnhealthyError` (a backend exhausted its
  retry/respawn budget and should be degraded). A partial that fails
  checksum verification is retried in place, with no error type.

Usage::

    from repro.runtime import ExecContext, FaultInjector, FaultSpec

    ctx = ExecContext(
        execution="process",
        faults=FaultInjector([FaultSpec(site="chunk", kind="crash")]),
    )
    hooi(x, rank=8, ctx=ctx)   # first chunk dispatch crashes its worker;
                               # the supervisor respawns + retries it

Fault kinds
-----------
``crash``
    Process worker: ``os._exit`` mid-job (pipe EOF at the parent).
    Serial: raise :class:`WorkerCrashError` from the chunk.
``hang``
    Sleep ``seconds`` with heartbeats suppressed — trips the
    supervisor's deadline when one is set.
``oom``
    Raise :class:`~repro.runtime.budget.MemoryLimitError` from the
    chunk, triggering recursive bisection.
``corrupt``
    Perturb the chunk's partial *after* its checksum was computed —
    detected by partial verification and recomputed.
``nan``
    Poison the chunk's partial with ``NaN`` *before* its checksum is
    computed — the non-finite value survives transport, is caught by
    the backends' finiteness sentinel (``check_finite``), and the chunk
    is recomputed; exhaustion raises
    :class:`~repro.runtime.health.NumericalHealthError`.
``slow``
    Sleep ``seconds`` with heartbeats *running* — pure latency that
    never trips the per-chunk hang detector but consumes the run's
    wall-clock budget, exercising ``deadline_seconds``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "BackendUnhealthyError",
    "DEFAULT_FALLBACK",
    "FallbackPolicy",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "WorkerCrashError",
]

#: Recognized fault kinds (see module docstring).
FAULT_KINDS = ("crash", "hang", "oom", "corrupt", "error", "nan", "slow")


# ---------------------------------------------------------------------------
# Failure taxonomy
# ---------------------------------------------------------------------------


class InjectedFault(RuntimeError):
    """Marker base for failures raised by the fault-injection framework."""


class WorkerCrashError(RuntimeError):
    """A worker died (real pipe EOF / nonzero exit, or injected crash).

    Retryable: the supervisor respawns the worker (process backend) or
    simply re-runs the chunk (serial) up to the policy's retry ceiling.
    """


class BackendUnhealthyError(RuntimeError):
    """A backend exhausted its retry/respawn budget for this run.

    Carries the backend name; :func:`repro.parallel.executor.parallel_s3ttmc`
    catches this and degrades along :attr:`FallbackPolicy.degrade`.
    """

    def __init__(self, backend: str, reason: str):
        self.backend = backend
        self.reason = reason
        super().__init__(f"backend {backend!r} unhealthy: {reason}")

    def __reduce__(self):
        return type(self), (self.backend, self.reason), self.__dict__


# ---------------------------------------------------------------------------
# Fault specification / injection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: *where* (site + filters) and *what* (kind).

    Parameters
    ----------
    site:
        Named injection site (``"chunk"`` today; sites are plain strings
        so new ones need no registry).
    kind:
        One of :data:`FAULT_KINDS`.
    match:
        Attribute filters against the site's keyword attributes; e.g.
        ``{"slot": 2}`` fires only on chunk slot 2, ``{"backend":
        "process"}`` only under the process backend. Missing attributes
        never match.
    after:
        Skip this many *matching* occurrences before firing (fire on
        occurrence ``after``, 0-based).
    times:
        Fire at most this many times (default once — so a retried chunk
        succeeds on its second attempt).
    probability:
        Fire each matching occurrence with this probability, drawn from
        the injector's seeded generator (still deterministic per seed).
    seconds:
        Sleep duration for ``kind="hang"`` / ``kind="slow"``.
    scale:
        Perturbation magnitude for ``kind="corrupt"``.
    """

    site: str
    kind: str
    match: Dict[str, Any] = field(default_factory=dict)
    after: int = 0
    times: int = 1
    probability: float = 1.0
    seconds: float = 5.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.times < 1:
            raise ValueError("times must be >= 1")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def matches(self, attrs: Dict[str, Any]) -> bool:
        """Whether this spec's filters accept the site attributes."""
        return all(attrs.get(k) == v for k, v in self.match.items())

    def payload(self) -> Tuple[str, float]:
        """Compact picklable form shipped to process workers."""
        return (
            self.kind,
            self.seconds if self.kind in ("hang", "slow") else self.scale,
        )


class FaultInjector:
    """Seeded, deterministic dispenser of planned faults.

    One injector travels with a run (``ctx.faults``). All arming
    decisions happen in the driving process — process workers never
    decide anything, they only *execute* a fault shipped with their
    chunk message — so occurrence counting has a single source of truth
    and a fault plan replays identically across runs.

    Thread-safe: runs that share one injector may arm concurrently.
    """

    def __init__(
        self, specs: Sequence[FaultSpec] = (), *, seed: int = 0
    ) -> None:
        self.specs: List[FaultSpec] = list(specs)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._lock = threading.Lock()
        self._seen: Dict[Tuple[int, str], int] = {}  # (spec idx, site) matches
        self._fired_count: Dict[int, int] = {}
        #: Chronological log of fired faults: ``(site, kind, attrs)``.
        self.fired: List[Tuple[str, str, Dict[str, Any]]] = []

    def arm(self, site: str, **attrs: Any) -> Optional[FaultSpec]:
        """The fault to execute at this site occurrence, if any.

        Counts the occurrence against every matching spec and returns
        the first spec that elects to fire (its ``fired`` budget is
        consumed). Call exactly once per site occurrence.
        """
        with self._lock:
            chosen: Optional[FaultSpec] = None
            for idx, spec in enumerate(self.specs):
                if spec.site != site or not spec.matches(attrs):
                    continue
                seen = self._seen.get((idx, site), 0)
                self._seen[(idx, site)] = seen + 1
                if chosen is not None:
                    continue  # still count occurrences for later specs
                if seen < spec.after:
                    continue
                if self._fired_count.get(idx, 0) >= spec.times:
                    continue
                if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                    continue
                self._fired_count[idx] = self._fired_count.get(idx, 0) + 1
                self.fired.append((site, spec.kind, dict(attrs)))
                chosen = spec
            return chosen

    @property
    def n_fired(self) -> int:
        """Total faults fired so far."""
        return len(self.fired)


# ---------------------------------------------------------------------------
# Fallback / resilience policy
# ---------------------------------------------------------------------------

#: Recognized execution strategies, weakest first (see
#: :mod:`repro.parallel.backends`); a degrade only moves down this order.
EXECUTIONS = ("serial", "process")


@dataclass(frozen=True)
class FallbackPolicy:
    """How much resilience a run wants, configured on the context.

    Parameters
    ----------
    max_retries:
        Retries per chunk beyond the first attempt before the backend is
        declared unhealthy (crash / hang / corrupt failures; genuine
        deterministic errors also consume these, then surface).
    backoff_seconds, backoff_multiplier:
        Exponential backoff before re-dispatching a failed chunk:
        attempt ``k`` (1-based retry) sleeps
        ``backoff_seconds * backoff_multiplier**(k-1)``.
    max_respawns:
        Worker respawns per :meth:`~repro.parallel.backends.Backend.execute`
        before the process backend is declared unhealthy.
    chunk_timeout:
        Per-chunk deadline in seconds, measured as *silence* — the time
        since the last heartbeat or reply from the worker running the
        chunk. ``None`` (default) disables hang detection, preserving
        the pre-supervision blocking behaviour.
    heartbeat_interval:
        Worker heartbeat period while a chunk is running.
    max_oom_splits:
        Recursion depth ceiling for OOM chunk bisection; past it (or at
        single-non-zero chunks) the ``MemoryLimitError`` propagates.
    degrade:
        Backend degradation chain tried, in order, when a backend is
        declared unhealthy. Only strictly weaker backends are taken
        (``process → serial``); an empty tuple disables fallback. An
        unknown backend name raises ``ValueError``.
    verify_partials:
        Verify each chunk partial against its production-time checksum
        and recompute on mismatch (catches shm transport corruption).
    check_finite:
        Reject chunk partials whose checksum is non-finite (a ``NaN`` or
        ``Inf`` anywhere in the partial poisons its sum, so the sentinel
        is free — both backends already compute the sum for
        ``verify_partials``). Rejected partials are recomputed up to
        ``max_retries``; persistent non-finiteness raises
        :class:`~repro.runtime.health.NumericalHealthError` instead of
        degrading the backend (a weaker backend cannot fix numerics).
    max_unhealthy_iters:
        Consecutive unhealthy decomposition iterations (non-finite or
        worsening objective) the
        :class:`~repro.runtime.health.HealthMonitor` tolerates before
        directing a recovery.
    max_health_recoveries:
        Recoveries (restore-from-checkpoint, then reseed) the watchdog
        may attempt before raising
        :class:`~repro.runtime.health.NumericalHealthError`.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    max_respawns: int = 3
    chunk_timeout: Optional[float] = None
    heartbeat_interval: float = 0.5
    max_oom_splits: int = 8
    degrade: Tuple[str, ...] = ("serial",)
    verify_partials: bool = True
    check_finite: bool = True
    max_unhealthy_iters: int = 3
    max_health_recoveries: int = 2

    def __post_init__(self) -> None:
        unknown = [name for name in self.degrade if name not in EXECUTIONS]
        if unknown:
            raise ValueError(
                f"unknown backend(s) {unknown} in degrade; expected names "
                f"from {EXECUTIONS}"
            )

    def backoff(self, retry: int) -> float:
        """Backoff delay before retry ``retry`` (1-based)."""
        if retry <= 0:
            return 0.0
        return self.backoff_seconds * self.backoff_multiplier ** (retry - 1)

    def degrade_to(self, backend_name: str) -> Optional[str]:
        """Next weaker backend to fall back to from ``backend_name``."""
        current = (
            EXECUTIONS.index(backend_name)
            if backend_name in EXECUTIONS
            else len(EXECUTIONS)
        )
        for name in self.degrade:
            if EXECUTIONS.index(name) < current:
                return name
        return None


#: Shared default policy (used when a context has no explicit one).
DEFAULT_FALLBACK = FallbackPolicy()
