"""The decomposition service: an asyncio job runtime over the runtime stack.

:class:`DecompositionService` is the front door ROADMAP item 1 asks for:
callers submit :class:`~repro.serve.jobs.JobSpec`\\ s and get job ids;
a fixed pool of scheduler slots executes them.

Two kinds of process share the work. The service's own process (the
event loop) keeps everything that decides *what* runs: admission, the
content-addressed result cache and tensor interner
(:mod:`repro.serve.cache`), coalescing of identical in-flight jobs, the
queue, and the cancel/preempt bookkeeping. Each slot owns one persistent
job process (:mod:`repro.serve.slot`), started by :meth:`start`, that
runs every attempt of every job the slot takes — so ``pool_size`` slots
compute on ``pool_size`` cores. A ``process`` service's backend lives
in the job process and is lent to job after job there.

Isolation is the per-job derived :class:`~repro.runtime.context.ExecContext`
the job process builds: every job runs under its **own**
:class:`~repro.runtime.budget.MemoryBudget` (limit = tenant quota), its
own cancel token, its own deadline and its own shm run token — a tenant
tripping any of those cannot disturb a sibling. Shared, deliberately,
within each job process: its :class:`~repro.runtime.context.PlanCache`
and interned tensors, because plans are pure functions of tensor
content; memory for them therefore grows with ``pool_size``. Jobs run
with no trace collector: nothing reads a job's spans, so none are
recorded. A job process that dies fails only its running job, with a
typed :class:`~repro.runtime.faults.BackendUnhealthyError`, and the slot
starts a fresh one before its next job.

Admission (:mod:`repro.serve.admission`) runs at ``submit`` time, before
any allocation. Cancel and preempt reach a running job as a message its
job process turns into a trip of the job's cancel token. Preemption
reuses the sweep's checkpoint state without touching disk: the trip out
of a preempted decomposition carries the state of its last completed
iteration, the job goes back to the queue holding it, and resumes from
it bit-for-bit.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Any, Dict, List, Optional

from ..parallel import shm as _shm
from ..runtime.checkpoint import CheckpointState
from ..runtime.context import EXECUTIONS
from ..runtime.health import RunCancelledError
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
from .slot import PoolSlot, SlotJob, SlotReply

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
    #: Peak of the last attempt's budget, measured in the job process.
    peak_bytes: int = 0
    #: The slot running the job while ``state == "running"``.
    slot: Optional[PoolSlot] = None
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
            measured_peak_bytes=self.peak_bytes,
            preemptions=self.preemptions,
            error_type=type(self.error).__name__ if self.error else None,
            error_message=str(self.error) if self.error else None,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.finished_at,
        )


class DecompositionService:
    """Multi-tenant submit/status/result/cancel runtime for decompositions.

    Parameters
    ----------
    execution, n_workers:
        Execution mode every job runs under (``"serial"`` or
        ``"process"``; anything else raises ``ValueError`` before a job
        process starts) and the worker count per backend. One mode for
        the whole service keeps the result cache honest: all entries
        were produced by the same execution configuration.
    pool_size:
        Number of concurrently running jobs (scheduler slots). Each slot
        runs its jobs in one persistent job process; a process slot's
        backend lives there, reused across jobs.
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
        if execution not in EXECUTIONS:
            raise ValueError(
                f"unknown execution {execution!r}; expected one of {EXECUTIONS}"
            )
        if execution == "serial":
            n_workers = None
        self.execution = execution
        self.n_workers = n_workers
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota or TenantQuota()
        self.results = ResultCache(cache_capacity)
        self.interner = TensorInterner()
        self._slots = [PoolSlot(i, execution, n_workers) for i in range(pool_size)]
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._records: Dict[str, JobRecord] = {}
        self._queued: Counter = Counter()  # tenant -> records in "queued"
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
        """Start every slot's job process, then the slot loops.

        The job processes start here, on the event-loop thread, before
        any job runs: a fork from a busy process could clone a lock some
        other thread holds.
        """
        if self._started:
            return self
        self._started = True
        if self.execution == "process":
            # Start the resource tracker first so the job processes and
            # their workers share it (as ProcessBackend's workers do).
            with _shm.tracker_guard():
                resource_tracker.ensure_running()
        for slot in self._slots:
            slot.start()
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
        ``drain=False`` cancels queued jobs and interrupts running ones.
        Either way every job process is stopped and joined (terminated
        if it does not stop in time), its backend closed first, and the
        hygiene counters (undrained budgets, live segments) finalized —
        the end-to-end tests assert zero leaked segments and drained
        budgets after this returns.
        """
        if self._closed:
            return dict(self.counters)
        self._closed = True
        if not drain:
            for record in list(self._records.values()):
                if record.state in ("queued", "running"):
                    self.cancel(record.job_id, "service shutdown")
        if self._started:
            # Wait for every job to end before the slots stop: a job
            # preempted while draining re-queues and must still run.
            await asyncio.gather(
                *(r.done.wait() for r in self._records.values() if not r.done.is_set())
            )
            for _ in self._slots:
                self._queue.put_nowait(_SHUTDOWN)
            await asyncio.gather(
                *(slot.task for slot in self._slots if slot.task is not None)
            )
            await asyncio.gather(*(slot.stop() for slot in self._slots))
        return dict(self.counters)

    def hygiene(self) -> Dict[str, int]:
        """Post-hoc cleanliness counters (shutdown assertions live here).

        ``live_segments`` counts this process's segments plus those each
        job process reported when it stopped.
        """
        return {
            "budgets_undrained": self.counters["budgets_undrained"],
            "live_segments": len(_shm.live_segments())
            + sum(slot.live_segments for slot in self._slots),
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
            queued = self._queued[spec.tenant]
            if queued >= quota.max_queued:
                raise QueueFullError(spec.tenant, queued, quota.max_queued)
        except Exception:
            self.counters["rejected"] += 1
            raise
        # Intern the tensor: duplicates collapse to one object, and its
        # fingerprint keys the result cache and the job processes' own
        # interners.
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
        self._queued[spec.tenant] += 1
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
            record.slot.interrupt(reason)
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
        record.slot.interrupt("preempted by service")
        return True

    # -- execution ---------------------------------------------------------

    def _set_state(self, record: JobRecord, state: str) -> None:
        """Move ``record`` to ``state``, keeping the per-tenant queued
        counts that admission reads."""
        if record.state == "queued":
            self._queued[record.spec.tenant] -= 1
        if state == "queued":
            self._queued[record.spec.tenant] += 1
        record.state = state

    def _finish(self, record: JobRecord, state: str) -> None:
        self._set_state(record, state)
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
                self._queue.put_nowait(follower)

    async def _slot_loop(self, slot: PoolSlot) -> None:
        while True:
            record = await self._queue.get()
            if record is _SHUTDOWN:
                return
            if record.state != "queued":  # cancelled while waiting
                continue
            await self._run_record(record, slot)

    async def _run_record(self, record: JobRecord, slot: PoolSlot) -> None:
        spec = record.spec
        self._set_state(record, "running")
        record.slot, slot.job_id = slot, record.job_id
        record.started_at = record.started_at or time.time()
        job = SlotJob.of(
            spec,
            record.fingerprint,
            memory_bytes=record.quota.memory_bytes,
            deadline_seconds=spec.deadline_seconds or record.quota.deadline_seconds,
            resume=record.resume_state,
        )
        try:
            reply = await slot.run(job)
        except Exception as exc:  # the job process died, or the job did not ship
            reply = SlotReply(False, exc, 0, False)
        finally:
            record.slot = slot.job_id = None
        record.peak_bytes = reply.peak_bytes
        if reply.undrained:
            self.counters["budgets_undrained"] += 1
        if reply.ok:
            record.result = reply.value
            self.counters["completed"] += 1
            if record.cache_key is not None:
                self.results.put(record.cache_key, reply.value)
            self._finish(record, "done")
        elif isinstance(reply.value, RunCancelledError) and record.preempt_requested:
            record.preempt_requested = False
            record.preemptions += 1
            self.counters["preemptions"] += 1
            if reply.value.checkpoint is not None:
                record.resume_state = reply.value.checkpoint
            self._set_state(record, "queued")
            self._queue.put_nowait(record)  # resumes from resume_state
        else:
            record.error = reply.value
            cancelled = isinstance(reply.value, RunCancelledError)
            self.counters["cancelled" if cancelled else "failed"] += 1
            self._finish(record, "cancelled" if cancelled else "failed")

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
                "pids": [slot.pid for slot in self._slots],
                "running": [slot.job_id for slot in self._slots],
                "execution": self.execution,
                "n_workers": self.n_workers,
            },
            "hygiene": self.hygiene(),
        }
