"""The decomposition service: an asyncio job runtime over the runtime stack.

:class:`DecompositionService` is the front door ROADMAP item 1 asks for:
callers submit :class:`~repro.serve.jobs.JobSpec`\\ s and get job ids;
a fixed pool of scheduler slots executes them — each slot lending one
persistent :mod:`repro.parallel` backend to job after job, so process
workers (and their shipped operands and warmed plan caches) survive
across submissions instead of being rebuilt per call.

Isolation is the per-job derived :class:`~repro.runtime.context.ExecContext`:
every job runs under its **own** :class:`~repro.runtime.budget.MemoryBudget`
(limit = tenant quota), its own cancel token (derived from a service
root, so shutdown cascades), its own deadline, and its own shm run token
— a tenant tripping any of those cannot disturb a sibling. Shared, deliberately: the
:class:`~repro.runtime.context.PlanCache` and the content-addressed
caches (:mod:`repro.serve.cache`), because plans and finished results
are pure functions of tensor content. Jobs run with no trace collector:
nothing reads a job's spans, so none are recorded.

Admission (:mod:`repro.serve.admission`) runs at ``submit`` time, before
any allocation. Preemption reuses the sweep's checkpoint state without
touching disk: the trip out of a preempted decomposition carries the
state of its last completed iteration, the job goes back to the queue
holding it, and resumes from it bit-for-bit.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.s3ttmc import s3ttmc
from ..decomp import hooi, hoqri
from ..parallel import shm as _shm
from ..parallel.backends import make_backend
from ..parallel.executor import parallel_s3ttmc
from ..runtime.budget import MemoryBudget
from ..runtime.checkpoint import CheckpointState
from ..runtime.context import ExecContext
from ..runtime.health import CancelToken, RunCancelledError
from .admission import check_admission
from .cache import ResultCache, TensorInterner
from .jobs import (
    JobSpec,
    JobStatus,
    QueueFullError,
    ServiceClosedError,
    TenantQuota,
    UnknownJobError,
)

__all__ = ["DecompositionService", "JobRecord"]

_SHUTDOWN = object()  # slot-loop sentinel


@dataclass
class JobRecord:
    """Internal per-job state (the public view is :class:`JobStatus`)."""

    job_id: str
    spec: JobSpec
    quota: TenantQuota
    fingerprint: str
    cache_key: Optional[tuple]
    predicted_peak_bytes: int
    state: str = "queued"
    cache_hit: bool = False
    preemptions: int = 0
    preempt_requested: bool = False
    result: Any = None
    error: Optional[BaseException] = None
    budget: Optional[MemoryBudget] = None
    cancel: Optional[CancelToken] = None
    attempt_cancel: Optional[CancelToken] = None
    resume_state: Optional[CheckpointState] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    done: asyncio.Event = field(default_factory=asyncio.Event)
    followers: List["JobRecord"] = field(default_factory=list)

    def status(self) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            tenant=self.spec.tenant,
            kind=self.spec.kind,
            state=self.state,
            cache_hit=self.cache_hit,
            predicted_peak_bytes=self.predicted_peak_bytes,
            measured_peak_bytes=(
                int(self.budget.peak) if self.budget is not None else 0
            ),
            preemptions=self.preemptions,
            error_type=type(self.error).__name__ if self.error else None,
            error_message=str(self.error) if self.error else None,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
        )


class _PoolSlot:
    """One scheduler slot owning (at most) one persistent backend."""

    def __init__(self, slot_id: int) -> None:
        self.slot_id = slot_id
        self.backend = None
        self.task: Optional[asyncio.Task] = None

    def ensure_backend(self, execution: str, n_workers: Optional[int]):
        if execution == "serial":
            return None
        if self.backend is None:
            self.backend = make_backend(execution, n_workers)
        return self.backend

    def close_backend(self) -> None:
        backend, self.backend = self.backend, None
        if backend is not None:
            backend.close()


class DecompositionService:
    """Multi-tenant submit/status/result/cancel runtime for decompositions.

    Parameters
    ----------
    execution, n_workers:
        Execution mode every job runs under (``"serial"`` / ``"thread"``
        / ``"process"``) and the worker count per backend. One mode for
        the whole service keeps the result cache honest: all entries
        were produced by the same execution configuration.
    pool_size:
        Number of concurrently running jobs (scheduler slots). Each
        non-serial slot owns one persistent backend reused across jobs.
    quotas, default_quota:
        Per-tenant :class:`~repro.serve.jobs.TenantQuota` map and the
        quota applied to tenants not in it.
    cache_capacity:
        Bound on the finished-result LRU.
    """

    def __init__(
        self,
        *,
        execution: str = "serial",
        n_workers: Optional[int] = None,
        pool_size: int = 2,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
        cache_capacity: int = 128,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if execution == "serial":
            n_workers = None
        self.execution = execution
        self.n_workers = n_workers
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota or TenantQuota()
        self.results = ResultCache(cache_capacity)
        self.interner = TensorInterner()
        self._base_ctx = ExecContext(execution=execution, n_workers=n_workers)
        self._root_cancel = CancelToken()
        self._slots = [_PoolSlot(i) for i in range(pool_size)]
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._records: Dict[str, JobRecord] = {}
        self._inflight: Dict[tuple, JobRecord] = {}
        self._seq = 0
        self._started = False
        self._closed = False
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "rejected": 0,
            "failed": 0,
            "cancelled": 0,
            "preemptions": 0,
            "budgets_undrained": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "DecompositionService":
        if self._started:
            return self
        self._started = True
        for slot in self._slots:
            slot.task = asyncio.create_task(
                self._slot_loop(slot), name=f"serve-slot-{slot.slot_id}"
            )
        return self

    async def __aenter__(self) -> "DecompositionService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self, *, drain: bool = True) -> Dict[str, int]:
        """Stop the service; returns the final counters.

        ``drain=True`` lets queued and running jobs finish first;
        ``drain=False`` cancels everything via the root cancel token.
        Either way the pool backends are closed and hygiene counters
        (undrained budgets) finalized — the end-to-end tests assert zero
        leaked segments and drained budgets after this returns.
        """
        if self._closed:
            return dict(self.counters)
        self._closed = True
        if not drain:
            self._root_cancel.cancel("service shutdown")
            for record in self._records.values():
                if record.state == "queued":
                    self.counters["cancelled"] += 1
                    self._finish(record, "cancelled")
        if self._started:
            for _ in self._slots:
                self._queue.put_nowait(_SHUTDOWN)
            await asyncio.gather(
                *(slot.task for slot in self._slots if slot.task is not None)
            )
        for slot in self._slots:
            slot.close_backend()
        self._base_ctx.close()
        return dict(self.counters)

    def hygiene(self) -> Dict[str, int]:
        """Post-hoc cleanliness counters (shutdown assertions live here)."""
        return {
            "budgets_undrained": self.counters["budgets_undrained"],
            "live_segments": len(_shm.live_segments()),
        }

    # -- submission --------------------------------------------------------

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    async def submit(self, spec: JobSpec) -> str:
        """Admit and enqueue ``spec``; returns the job id.

        Raises a typed :class:`~repro.serve.jobs.AdmissionError` —
        before any allocation — when the tenant's quota refuses the job
        (predicted peak too large, or queue full). Content-identical
        deterministic submissions are served from the result cache
        (``done`` immediately, ``cache_hit=True``) or coalesced onto an
        identical in-flight job.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        spec.validate()
        quota = self.quota_for(spec.tenant)
        # Admission first: prediction is closed-form on the spec alone,
        # so a rejected job allocates nothing and touches no backend.
        try:
            predicted = check_admission(
                spec,
                quota,
                execution=self.execution,
                n_workers=self.n_workers,
            )
            queued = sum(
                1
                for r in self._records.values()
                if r.spec.tenant == spec.tenant and r.state == "queued"
            )
            if queued >= quota.max_queued:
                raise QueueFullError(spec.tenant, queued, quota.max_queued)
        except Exception:
            self.counters["rejected"] += 1
            raise
        # Intern the tensor: duplicates collapse to one object, so plan
        # memos, the shared PlanCache, and the process backend's
        # shipped-tensor generation all hit warm.
        fingerprint, tensor = self.interner.intern(spec.tensor)
        spec.tensor = tensor
        cacheable = spec.use_cache and spec.deterministic()
        cache_key = (fingerprint, spec.config_key()) if cacheable else None

        self._seq += 1
        record = JobRecord(
            job_id=f"job-{self._seq:06d}",
            spec=spec,
            quota=quota,
            fingerprint=fingerprint,
            cache_key=cache_key,
            predicted_peak_bytes=predicted,
        )
        self._records[record.job_id] = record
        self.counters["submitted"] += 1

        if cache_key is not None:
            cached = self.results.get(cache_key)
            if cached is not None:
                record.cache_hit = True
                record.result = cached
                self.counters["cache_hits"] += 1
                self._finish(record, "done")
                return record.job_id
            primary = self._inflight.get(cache_key)
            if primary is not None:
                # Identical job already queued/running: ride its result.
                primary.followers.append(record)
                self.counters["coalesced"] += 1
                return record.job_id
            self._inflight[cache_key] = record
        record.cancel = self._root_cancel.derive()
        self._queue.put_nowait(record)
        return record.job_id

    # -- job control -------------------------------------------------------

    def _record(self, job_id: str) -> JobRecord:
        try:
            return self._records[job_id]
        except KeyError:
            raise UnknownJobError(job_id) from None

    def status(self, job_id: str) -> JobStatus:
        return self._record(job_id).status()

    async def result(self, job_id: str) -> Any:
        """Wait for the job and return its result (or raise its error)."""
        record = self._record(job_id)
        await record.done.wait()
        if record.state == "done":
            return record.result
        if record.error is not None:
            raise record.error
        raise RunCancelledError("job cancelled", site=f"serve.{job_id}")

    def cancel(self, job_id: str, reason: str = "cancelled by caller") -> bool:
        """Cancel a queued or running job; ``False`` if already finished."""
        record = self._record(job_id)
        if record.state == "queued":
            self._finish(record, "cancelled")
            self.counters["cancelled"] += 1
            return True
        if record.state == "running":
            record.preempt_requested = False
            if record.cancel is not None:
                record.cancel.cancel(reason)
            if record.attempt_cancel is not None:
                record.attempt_cancel.cancel(reason)
            return True
        return False

    def preempt(self, job_id: str) -> bool:
        """Preempt a running decomposition; it requeues holding its last
        completed iteration and resumes from it bit-for-bit. Kernel jobs
        (no iteration state) are not preemptible. ``False`` if the job is
        not running."""
        record = self._record(job_id)
        if record.state != "running" or record.spec.kind == "s3ttmc":
            return False
        record.preempt_requested = True
        if record.attempt_cancel is not None:
            record.attempt_cancel.cancel("preempted by service")
        return True

    # -- execution ---------------------------------------------------------

    def _finish(self, record: JobRecord, state: str) -> None:
        record.state = state
        record.finished_at = time.time()
        if record.cache_key is not None:
            if self._inflight.get(record.cache_key) is record:
                del self._inflight[record.cache_key]
        record.resume_state = None
        record.done.set()
        self._fulfill_followers(record)

    def _fulfill_followers(self, record: JobRecord) -> None:
        followers, record.followers = record.followers, []
        for follower in followers:
            if follower.state != "queued":
                continue
            if record.state == "done":
                follower.cache_hit = True
                follower.result = record.result
                self.counters["cache_hits"] += 1
                self._finish(follower, "done")
            else:
                # The primary failed or was cancelled; run the duplicate
                # on its own (its spec was independently admitted).
                if follower.cache_key is not None:
                    self._inflight.setdefault(follower.cache_key, follower)
                follower.cancel = self._root_cancel.derive()
                self._queue.put_nowait(follower)

    async def _slot_loop(self, slot: _PoolSlot) -> None:
        while True:
            record = await self._queue.get()
            if record is _SHUTDOWN:
                return
            if record.state != "queued":  # cancelled while waiting
                continue
            await self._run_record(record, slot)

    async def _run_record(self, record: JobRecord, slot: _PoolSlot) -> None:
        spec = record.spec
        record.state = "running"
        record.started_at = record.started_at or time.time()
        # Fresh isolation per attempt, shared plans via the base context.
        record.budget = MemoryBudget(limit_bytes=record.quota.memory_bytes)
        record.attempt_cancel = (record.cancel or self._root_cancel).derive()
        deadline = spec.deadline_seconds or record.quota.deadline_seconds
        ctx = self._base_ctx.derive(
            budget=record.budget,
            seed=spec.seed,
            deadline_seconds=deadline,
            cancel=record.attempt_cancel,
        )
        backend = slot.ensure_backend(self.execution, self.n_workers)
        if backend is not None:
            ctx.adopt_backend(backend)
        try:
            result = await asyncio.to_thread(self._execute_sync, record, ctx)
        except RunCancelledError as exc:
            if record.preempt_requested:
                record.preempt_requested = False
                record.preemptions += 1
                self.counters["preemptions"] += 1
                if exc.checkpoint is not None:
                    record.resume_state = exc.checkpoint
                record.state = "queued"
                self._queue.put_nowait(record)  # resumes from resume_state
            else:
                record.error = exc
                self.counters["cancelled"] += 1
                self._finish(record, "cancelled")
        except BaseException as exc:
            record.error = exc
            self.counters["failed"] += 1
            self._finish(record, "failed")
        else:
            record.result = result
            self.counters["completed"] += 1
            if record.cache_key is not None:
                self.results.put(record.cache_key, result)
            self._finish(record, "done")
        finally:
            # The backend belongs to the slot, not the job: detach it so
            # nothing tears down a pool backend mid-service.
            ctx.release_backend()
            if record.budget is not None and record.budget.allocations:
                self.counters["budgets_undrained"] += 1

    def _execute_sync(self, record: JobRecord, ctx: ExecContext) -> Any:
        """Run one job on the worker thread (the only non-loop code)."""
        spec = record.spec
        if spec.kind == "s3ttmc":
            factor = np.ascontiguousarray(spec.factor, dtype=np.float64)
            if ctx.execution == "serial":
                return s3ttmc(spec.tensor, factor, ctx=ctx, **spec.driver_kwargs())
            return parallel_s3ttmc(
                spec.tensor, factor, ctx=ctx, **spec.driver_kwargs()
            )
        driver = hooi if spec.kind == "hooi" else hoqri
        kwargs = spec.driver_kwargs()
        if record.resume_state is not None:
            kwargs["resume"] = record.resume_state
        return driver(spec.tensor, int(spec.rank), ctx=ctx, **kwargs)

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for record in self._records.values():
            states[record.state] = states.get(record.state, 0) + 1
        return {
            "counters": dict(self.counters),
            "states": states,
            "result_cache": {
                "size": len(self.results),
                "hits": self.results.hits,
                "misses": self.results.misses,
            },
            "interner": {
                "size": len(self.interner),
                "hits": self.interner.hits,
                "misses": self.interner.misses,
            },
            "pool": {
                "size": len(self._slots),
                "execution": self.execution,
                "n_workers": self.n_workers,
            },
            "hygiene": self.hygiene(),
        }
