"""Run-level resilience: deadlines, cooperative cancellation, health watchdog.

The fault layer (:mod:`repro.runtime.faults` + the supervision machinery
in :mod:`repro.parallel.backends`) protects individual *chunks*: a
crashed worker is respawned, a hung chunk re-dispatched, an OOM chunk
bisected. This module adds the guarantees a whole *run* needs before a
multi-tenant service can admit it — and preempt or evict it safely:

* :class:`CancelToken` — a thread-safe cancellation flag, composable
  parent→child via :meth:`CancelToken.derive`: cancelling a parent
  cancels every token derived from it (the child *pulls* the parent's
  state, so there is no registration race and tokens can be derived
  after the parent was already cancelled).
* Deadlines — ``ExecContext(deadline_seconds=...)`` arms a wall-clock
  budget measured from context construction.  Both are *cooperative*:
  :meth:`~repro.runtime.context.ExecContext.check_health` is called
  between chunks in every backend, between HOOI/HOQRI iterations, and
  inside the process-backend supervisor wait loop; it raises
  :class:`RunCancelledError` / :class:`DeadlineExceededError` at the
  next checkpoint-safe boundary. The decomposition drivers attach the
  last completed iteration to the trip (``exc.checkpoint``), and also
  persist it when the run has a ``checkpoint_dir``, so a preempted run
  resumes bit-for-bit (``resume=exc.checkpoint``).
* :class:`HealthMonitor` — a divergence/stall watchdog for the
  decomposition loop. Each iteration reports its objective; non-finite
  or worsening values accumulate *strikes*, and after
  ``policy.max_unhealthy_iters`` consecutive strikes the monitor
  directs a recovery: first restore from the last healthy snapshot,
  then reseed (the :func:`repro.decomp.restarts.reseed_seed`
  convention). When ``policy.max_health_recoveries`` recoveries are
  exhausted it raises :class:`NumericalHealthError`.

Every trip is observable: ``health.cancelled`` / ``health.deadline`` /
``health.nonfinite`` / ``health.divergence`` / ``health.recovery``
events plus ``health.*`` counters land on the run's collector.

Layering: this module sits in ``runtime`` (below ``parallel`` and
``decomp``) and must not import either — backends and drivers call
*down* into it.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Optional

__all__ = [
    "CancelToken",
    "DeadlineExceededError",
    "HealthError",
    "HealthMonitor",
    "NumericalHealthError",
    "RunCancelledError",
]


# ---------------------------------------------------------------------------
# Failure taxonomy
# ---------------------------------------------------------------------------


class HealthError(RuntimeError):
    """Base for run-level health failures (cancel / deadline / numerics).

    Deliberately *not* a subclass of
    :class:`~repro.runtime.faults.BackendUnhealthyError`: backend
    degradation cannot fix a cancelled, expired or diverging run, so
    these propagate straight through
    :func:`repro.parallel.executor.parallel_s3ttmc`'s degradation path.

    ``checkpoint`` is set on a cancel or deadline trip out of a
    decomposition: the sweep's
    :class:`~repro.runtime.checkpoint.CheckpointState` of its last
    completed iteration (``None`` when none completed), which the
    drivers accept as ``resume=``.
    """

    checkpoint: Any = None


class RunCancelledError(HealthError):
    """The run's :class:`CancelToken` was cancelled.

    Carries the reason passed to :meth:`CancelToken.cancel`.
    """

    def __init__(self, reason: str = "", site: str = ""):
        self.reason = reason
        self.site = site
        detail = reason or "cancelled"
        if site:
            detail = f"{detail} (at {site})"
        super().__init__(f"run cancelled: {detail}")

    def __reduce__(self):
        return type(self), (self.reason, self.site), self.__dict__


class DeadlineExceededError(HealthError):
    """The run outlived its ``deadline_seconds`` wall-clock budget."""

    def __init__(self, deadline_seconds: float, site: str = ""):
        self.deadline_seconds = float(deadline_seconds)
        self.site = site
        detail = f"deadline of {deadline_seconds:g}s exceeded"
        if site:
            detail = f"{detail} (at {site})"
        super().__init__(detail)

    def __reduce__(self):
        return type(self), (self.deadline_seconds, self.site), self.__dict__


class NumericalHealthError(HealthError):
    """Numerical health could not be recovered within the policy budget.

    Raised when kernel outputs stay non-finite past the retry ceiling,
    or when the decomposition watchdog exhausts
    ``FallbackPolicy.max_health_recoveries`` without the objective
    returning to a finite, non-worsening trajectory.
    """

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"numerical health exhausted: {reason}")

    def __reduce__(self):
        return type(self), (self.reason,), self.__dict__


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


class CancelToken:
    """Thread-safe cooperative cancellation flag, composable parent→child.

    ``cancel()`` is idempotent and may be called from any thread (e.g. a
    service's eviction timer while the run's main thread is inside a
    kernel). Workers never poll the token directly — the supervisor in
    the driving process checks between dispatches and kills/drains
    in-flight workers on trip.

    Child tokens (:meth:`derive`) *pull* their parent's state: a child
    is cancelled when it or any ancestor is, with no registration
    handshake — deriving from an already-cancelled parent yields an
    already-cancelled child, and there is no window in which a parent's
    cancellation can be missed.
    """

    __slots__ = ("_event", "_lock", "_parent", "_reason")

    def __init__(self, *, parent: Optional["CancelToken"] = None) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._parent = parent
        self._reason = ""

    def cancel(self, reason: str = "") -> None:
        """Cancel this token (and thereby every token derived from it)."""
        with self._lock:
            if not self._event.is_set():
                self._reason = reason
                self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether this token or any ancestor has been cancelled."""
        if self._event.is_set():
            return True
        parent = self._parent
        return parent is not None and parent.cancelled

    @property
    def reason(self) -> str:
        """The first cancellation reason along the ancestor chain."""
        parent = self._parent
        if parent is not None and parent.cancelled:
            return parent.reason
        return self._reason

    def derive(self) -> "CancelToken":
        """Child token: cancelled when this token is, or independently."""
        return CancelToken(parent=self)

    def raise_if_cancelled(self, site: str = "") -> None:
        """Raise :class:`RunCancelledError` if cancelled; else return."""
        if self.cancelled:
            raise RunCancelledError(self.reason, site)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "live"
        return f"CancelToken({state})"


# ---------------------------------------------------------------------------
# Numerical-health watchdog
# ---------------------------------------------------------------------------

#: Relative worsening tolerance: an objective increase below
#: ``_WORSEN_RTOL * max(norm_x_squared, 1)`` is numerical noise, not a
#: divergence strike. HOOI/HOQRI objectives are theoretically
#: non-increasing, so healthy runs never accumulate strikes.
_WORSEN_RTOL = 1e-9


class HealthMonitor:
    """Divergence/stall watchdog for the decomposition iteration loop.

    The driver calls :meth:`observe` once per iteration with the fresh
    objective value. The monitor tracks *consecutive* unhealthy
    iterations (non-finite objective, or objective worsening beyond
    numerical noise) and, once ``policy.max_unhealthy_iters`` strikes
    accumulate, answers with a recovery directive:

    ``"restore"``
        First recovery: restart from the last healthy snapshot — fixes
        transient corruption (e.g. a bit-flipped partial that slipped
        through) without losing converged progress.
    ``"reseed"``
        Subsequent recoveries: deterministic divergence will re-strike
        from the same snapshot, so re-initialize with the next restart
        seed (``base_seed + attempt``, the :mod:`repro.decomp.restarts`
        convention).

    ``None`` means the iteration is healthy (or still under the strike
    ceiling). When ``policy.max_health_recoveries`` directives have been
    issued and strikes accumulate again, :meth:`observe` raises
    :class:`NumericalHealthError`. Every strike and recovery emits a
    ``health.*`` event/counter on ``ctx``.
    """

    def __init__(self, policy: Any, ctx: Any = None) -> None:
        self.policy = policy
        self.ctx = ctx
        self.strikes = 0
        self.recoveries = 0

    def _emit(self, event: str, **attrs: Any) -> None:
        ctx = self.ctx
        if ctx is None:
            return
        ctx.event(f"health.{event}", **attrs)
        metrics = ctx.metrics
        if metrics is not None:
            metrics.counter(f"health.{event}").inc()

    def observe(
        self,
        objective: float,
        prev_objective: float,
        *,
        norm_x_squared: float = 1.0,
        iteration: int = 0,
    ) -> Optional[str]:
        """Record one iteration's objective; return a recovery directive.

        Returns ``None`` (healthy / under the strike ceiling),
        ``"restore"`` or ``"reseed"``; raises
        :class:`NumericalHealthError` when the recovery budget is spent.
        """
        import math

        finite = math.isfinite(objective)
        tol = _WORSEN_RTOL * max(abs(norm_x_squared), 1.0)
        worsened = (
            finite
            and math.isfinite(prev_objective)
            and objective - prev_objective > tol
        )
        if finite and not worsened:
            self.strikes = 0
            return None

        self.strikes += 1
        kind = "nonfinite" if not finite else "divergence"
        self._emit(
            kind,
            iteration=int(iteration),
            strikes=self.strikes,
            objective=float(objective) if finite else None,
        )
        if self.strikes < max(1, int(self.policy.max_unhealthy_iters)):
            return None

        self.strikes = 0
        if self.recoveries >= int(self.policy.max_health_recoveries):
            self._emit("exhausted", iteration=int(iteration))
            raise NumericalHealthError(
                f"objective {kind} persisted through "
                f"{self.recoveries} recoveries "
                f"(max_health_recoveries={self.policy.max_health_recoveries})"
            )
        self.recoveries += 1
        directive = "restore" if self.recoveries == 1 else "reseed"
        self._emit(
            "recovery",
            iteration=int(iteration),
            directive=directive,
            attempt=self.recoveries,
        )
        return directive
