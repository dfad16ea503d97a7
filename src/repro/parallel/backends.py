"""Pluggable execution backends for the parallel S³TTMc executor.

Two backends share one contract — evaluate a
:class:`~repro.parallel.executor.ParallelJob`'s owned shards (one
disjoint non-zero range per worker, see :mod:`repro.parallel.sharding`)
into compact row-block partials, and reduce those through the
deterministic :func:`~repro.parallel.sharding.hierarchical_merge` into
one ``(I, S_{N-1,R})`` output:

``serial``
    Runs each shard's tasks in line on the calling thread. The bitwise
    reference the process backend is checked against, and the fallback
    of last resort.
``process``
    Persistent worker processes fed via ``multiprocessing`` pipes, each
    holding only its own shard in shared memory
    (:mod:`repro.parallel.shm`): true multi-core execution in pure
    NumPy. Workers cache their chunk plans across calls, so only the
    first kernel call of a decomposition pays symbolic (lattice-build)
    cost.

Chunk supervision
-----------------
One supervisor, :meth:`Backend.execute`, drives both backends. It keeps
one task queue per shard, runs at most one task per shard at a time,
and applies the context's :class:`~repro.runtime.faults.FallbackPolicy`
the same way whatever runs the task:

* transient task failures (worker crash or error, corrupt partial,
  injected error) are retried with exponential backoff, up to the
  policy's ``max_retries`` per task;
* a task that exceeds the memory budget is **bisected** along the
  non-zero axis via the balanced partitioner, depth-first — its halves
  run next, first half first — up to ``max_oom_splits`` deep, so the
  run degrades to smaller intermediates instead of dying;
* every partial carries a checksum taken by its producer; a mismatch
  at the consumer marks the partial corrupt and retries the task
  (``verify_partials``). The checksum doubles as a free finiteness
  sentinel (``check_finite``): persistently non-finite partials raise
  :class:`~repro.runtime.health.NumericalHealthError` rather than
  degrading the backend, since a weaker backend cannot fix numerics.

Faults are armed only here, once per task attempt at the ``"chunk"``
site. A backend supplies only a task runner — how one task runs:
``serial`` in line, ``process`` over the owner worker's pipe. Every
partial, in line or in a worker, comes from
:func:`~repro.parallel.shm.compute_partial`, so only the ``crash`` and
``hang`` faults act differently per substrate.

The process runner additionally *supervises* its workers: each running
task is covered by a heartbeat (sent by the worker, suppressed only if
the process is truly wedged), silence longer than
``policy.chunk_timeout`` gets the worker killed, and dead workers —
killed, crashed, or OOM-killed by the OS — are detected via pipe EOF,
respawned (re-ingesting their shard from the parent's canonical copy,
plan caches rewarmed on demand), and their task retried. When a backend
exhausts its retry/respawn budget it raises
:class:`~repro.runtime.faults.BackendUnhealthyError`, which the executor
turns into a degrade (process → serial) per the policy.

Run-level health rides on the context (:mod:`repro.runtime.health`):
every supervisor round and every in-line task attempt calls
``ctx.check_health()`` — cooperative cancellation and deadlines trip at
task boundaries, and in-flight process workers are killed and the pool
reset on the way out.

Reductions are deterministic: a shard's partial — or, after OOM
splits, its sub-partials summed in start order — merges through the
pairwise tree fixed by the shard layout, so reruns produce bit-identical
output whatever the completion order, retries or backend. For one fault
schedule keyed by slot and attempt, split results are bitwise across
backends too; against a clean run they agree to rounding, since a split
reorders the summation inside one chunk.

Everything is observable: ``parallel.retries``, ``parallel.worker_respawns``,
``parallel.oom_splits``, ``parallel.corrupt_partials`` counters plus
per-incident trace events, and the matching
:class:`~repro.parallel.executor.ParallelRunReport` fields.

Backends are context managers; ``close()`` is idempotent. Create them
directly, via :func:`make_backend`, or implicitly through
``parallel_s3ttmc(..., backend="process")`` /
``hooi(..., ctx=ExecContext(execution="process"))``.
"""

from __future__ import annotations

import math
import os
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from multiprocessing.connection import wait as _mp_wait
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..obs import trace as _trace
from ..runtime.budget import MemoryLimitError
from ..runtime.context import ExecContext, tensor_generation
from ..runtime.faults import (
    BackendUnhealthyError,
    FallbackPolicy,
    InjectedFault,
    WorkerCrashError,
)
from ..runtime.health import NumericalHealthError
from . import shm as _shm
from .child import STOP_TIMEOUT_S, Child
from .executor import (
    ParallelJob,
    ParallelRunReport,
    _count_cache,
    chunk_row_block,
    get_chunk_plans,
)
from .partition import balanced_partition, estimate_nonzero_costs
from .sharding import TensorShard, hierarchical_merge, shards_for_ranges

__all__ = [
    "Backend",
    "SerialBackend",
    "ProcessBackend",
    "BACKENDS",
    "default_workers",
    "make_backend",
]

#: Task failures the supervisor retries. A ``MemoryLimitError`` splits
#: the task instead; any other error propagates.
_RETRYABLE = (WorkerCrashError, InjectedFault)


def default_workers() -> int:
    """Default worker count: one per core."""
    return max(1, os.cpu_count() or 1)


def _supervisor_wait_timeout(
    ctx: ExecContext,
    policy: FallbackPolicy,
    running: Dict[object, "_WorkerHandle"],
) -> Optional[float]:
    """Upper bound for one supervisor ``_mp_wait`` round.

    Starts from the hang-detection deadline (silence past
    ``policy.chunk_timeout``), then bounds it by the run deadline so an
    expired run is noticed even while every worker is healthy, and caps
    it at 100 ms when a cancel token is armed — cancellation arrives
    from *another* thread, so the supervisor must wake to observe it.
    With no timeout, deadline or token the wait stays unbounded (the
    pre-supervision blocking behaviour, zero wake-ups).
    """
    timeout: Optional[float] = None
    if policy.chunk_timeout is not None:
        now = time.monotonic()
        deadline = min(
            h.last_heard + policy.chunk_timeout for h in running.values()
        )
        timeout = max(0.005, deadline - now)
    remaining = ctx.remaining_seconds()
    if remaining is not None:
        bound = max(0.005, remaining)
        timeout = bound if timeout is None else min(timeout, bound)
    if ctx.cancel_token is not None:
        timeout = 0.1 if timeout is None else min(timeout, 0.1)
    return timeout


def _checksums_match(expected: float, actual: float) -> bool:
    # Bitwise: the consumer re-sums the exact buffer the producer summed,
    # in the same (C-contiguous pairwise) order.
    if math.isnan(expected) and math.isnan(actual):
        return True
    return expected == actual


def _note_incident(
    ctx: ExecContext,
    report: Optional[ParallelRunReport],
    event: str,
    counter: str,
    report_field: str,
    **attrs,
) -> None:
    """Record one resilience incident: trace event + counter + report."""
    collector = ctx.collector
    if collector is not None:
        _trace.event(event, collector=collector, **attrs)
        collector.metrics.counter(counter).inc()
    if report is not None:
        setattr(report, report_field, getattr(report, report_field) + 1)


def _fill_chunk_report(
    report: Optional[ParallelRunReport], slot: int, seconds: float, worker: str
) -> None:
    if report is None:
        return
    if slot < len(report.chunk_seconds):
        report.chunk_seconds[slot] += seconds
    report.worker_busy[worker] = report.worker_busy.get(worker, 0.0) + seconds


def _bisect_range(
    indices: np.ndarray, start: int, stop: int, rank: int
) -> List[Tuple[int, int]]:
    """Split ``[start, stop)`` into two cost-balanced non-empty halves."""
    if stop - start <= 1:
        return [(start, stop)]
    costs = estimate_nonzero_costs(indices[start:stop], rank)
    halves = [
        (start + a, start + b)
        for a, b in balanced_partition(costs, 2)
        if a < b
    ]
    if len(halves) < 2:  # degenerate cost profile: fall back to midpoint
        mid = (start + stop) // 2
        halves = [(start, mid), (mid, stop)]
    return halves


class _Task:
    """One schedulable unit of a shard: the whole shard or an OOM-split
    sub-range, in global non-zero coordinates; ``rows`` are its sorted
    output rows."""

    __slots__ = ("slot", "start", "stop", "rows", "attempt", "depth")

    def __init__(self, slot, start, stop, rows, depth=0) -> None:
        self.slot = slot
        self.start = start
        self.stop = stop
        self.rows = rows
        self.attempt = 0
        self.depth = depth


class _Partial(NamedTuple):
    """A finished task's partial and the checksum its producer took."""

    data: np.ndarray
    checksum: float
    #: Worker-side plan-cache hit and build seconds (process only; the
    #: serial backend's plans are counted by ``get_chunk_plans``).
    plan_hit: Optional[bool] = None
    build_seconds: float = 0.0


class Backend(ABC):
    """One parallel execution strategy with reusable worker state."""

    name: str = "abstract"

    def __init__(self, n_workers: Optional[int] = None) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers) if n_workers else default_workers()

    @abstractmethod
    def _runner(self, job: ParallelJob, report: Optional[ParallelRunReport]):
        """This backend's task runner for one :meth:`execute`.

        The runner exposes ``rows`` (each shard's output rows),
        ``start(task, fault)`` (begin one task; ``fault`` is an armed
        fault's payload or ``None``), ``wait()`` (block until some
        started tasks finish; returns ``(task, outcome)`` pairs, the
        outcome a :class:`_Partial`, a retryable error or a
        ``MemoryLimitError``) and ``abort()`` (stop in-flight work on the
        way out of a failed run).
        """

    def execute(
        self, job: ParallelJob, report: Optional[ParallelRunReport] = None
    ) -> np.ndarray:
        """Run ``job``'s shards under the chunk supervisor and return the
        reduced ``(dim, cols)`` output."""
        ctx = job.ctx
        policy = ctx.effective_fallback()
        injector = ctx.faults
        runner = self._runner(job, report)
        partial_bytes = sum(rows.shape[0] for rows in runner.rows) * job.cols * 8
        y_bytes = job.dim * job.cols * 8
        ctx.request_bytes(partial_bytes, "parallel partials (sharded)")
        ctx.request_bytes(y_bytes, "Y (parallel)")
        queues: List[Deque[_Task]] = [
            deque([_Task(slot, start, stop, runner.rows[slot])])
            for slot, (start, stop) in enumerate(job.ranges)
        ]
        done: List[List[Tuple[_Task, np.ndarray]]] = [[] for _ in queues]
        busy: set = set()
        hits = misses = 0
        build_seconds = 0.0

        def retry(task: _Task, reason: str, *, health: bool = False) -> None:
            task.attempt += 1
            where = f"shard {task.slot} chunk [{task.start},{task.stop})"
            if task.attempt > policy.max_retries:
                if health:
                    raise NumericalHealthError(
                        f"{where} stayed non-finite after {task.attempt} attempts"
                    )
                raise BackendUnhealthyError(
                    self.name,
                    f"{where} failed after {task.attempt} attempts: {reason}",
                )
            _note_incident(
                ctx, report, "parallel.retry", "parallel.retries", "retries",
                backend=self.name, chunk=task.slot, shard=task.slot,
                attempt=task.attempt, reason=reason,
            )
            backoff = policy.backoff(task.attempt)
            if backoff > 0:
                time.sleep(backoff)
            queues[task.slot].appendleft(task)

        def split(task: _Task, oom: MemoryLimitError) -> None:
            if task.depth >= policy.max_oom_splits or task.stop - task.start <= 1:
                raise oom
            _note_incident(
                ctx, report, "parallel.oom_split", "parallel.oom_splits",
                "oom_splits", backend=self.name, chunk=task.slot,
                shard=task.slot, nz_start=task.start, nz_stop=task.stop,
                depth=task.depth, label=oom.label,
            )
            halves = [
                _Task(
                    task.slot, start, stop,
                    chunk_row_block(job.indices[start:stop], job.dim)[0],
                    depth=task.depth + 1,
                )
                for start, stop in _bisect_range(
                    job.indices, task.start, task.stop, job.rank
                )
            ]
            # Depth-first: the halves run next, first half first, so the
            # split tree (and every fault armed on it) is the same on
            # every backend.
            queues[task.slot].extendleft(reversed(halves))

        try:
            while busy or any(queues):
                # Raising here escapes into the BaseException handler
                # below: the runner stops in-flight work on the way out.
                ctx.check_health(f"{self.name}.supervisor")
                for slot, queue in enumerate(queues):
                    if not queue or slot in busy:
                        continue
                    task = queue.popleft()
                    fault = (
                        injector.arm(
                            "chunk", backend=self.name, slot=slot, shard=slot,
                            attempt=task.attempt,
                        )
                        if injector is not None
                        else None
                    )
                    busy.add(slot)
                    runner.start(task, None if fault is None else fault.payload())
                for task, outcome in runner.wait():
                    busy.discard(task.slot)
                    if isinstance(outcome, MemoryLimitError):
                        split(task, outcome)
                    elif isinstance(outcome, _RETRYABLE):
                        retry(task, str(outcome))
                    elif policy.check_finite and not math.isfinite(outcome.checksum):
                        _note_incident(
                            ctx, report, "health.nonfinite_partial",
                            "health.nonfinite_partials", "nonfinite_partials",
                            backend=self.name, chunk=task.slot, shard=task.slot,
                        )
                        retry(task, "non-finite partial", health=True)
                    elif policy.verify_partials and not _checksums_match(
                        outcome.checksum, float(outcome.data.sum())
                    ):
                        _note_incident(
                            ctx, report, "parallel.corrupt_partial",
                            "parallel.corrupt_partials", "corrupt_partials",
                            backend=self.name, chunk=task.slot, shard=task.slot,
                        )
                        retry(task, "corrupt partial (checksum mismatch)")
                    else:
                        done[task.slot].append((task, outcome.data))
                        if outcome.plan_hit is not None:
                            hits += outcome.plan_hit
                            misses += not outcome.plan_hit
                            build_seconds += outcome.build_seconds

            blocks = []
            for rows, parts in zip(runner.rows, done):
                if len(parts) == 1 and parts[0][0].depth == 0:
                    blocks.append(parts[0][1])
                    continue
                # Start-ordered merge of a split shard: the summation
                # order is a function of the split tree alone, never of
                # completion order.
                block = np.zeros((rows.shape[0], job.cols), dtype=np.float64)
                for task, part in sorted(parts, key=lambda item: item[0].start):
                    block[np.searchsorted(rows, task.rows)] += part
                blocks.append(block)
            out = hierarchical_merge(
                list(zip(runner.rows, blocks)),
                job.dim,
                job.cols,
                ctx=ctx,
                report=report,
            )
            _count_cache(hits, misses, report, ctx)
            if report is not None:
                report.plan_build_seconds += build_seconds
            return out
        except BaseException:
            runner.abort()
            raise
        finally:
            ctx.release_bytes(partial_bytes, "parallel partials (sharded)")
            ctx.release_bytes(y_bytes, "Y (parallel)")

    def close(self) -> None:
        """Release worker state (idempotent)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialBackend(Backend):
    """Run every task in line on the calling thread (reference backend).

    All shard partials are staged until the deterministic pairwise merge
    — the bitwise anchor the process backend is checked against — so
    reduction memory is ``Σ_c rows_c·S``. ``n_workers`` is the shard
    count; the shards run one after another. The backend is its own task
    runner, and each task attempt is one ``parallel.chunk`` span.
    Nothing can preempt an in-line task, so an injected hang is a stall
    here and kill-based hang recovery is a process-backend capability.
    """

    name = "serial"

    def _runner(self, job, report) -> "SerialBackend":
        self._job = job
        self._report = report
        self._plans = get_chunk_plans(
            job.tensor, job.ranges, job.memoize, report=report, ctx=job.ctx
        )
        self.rows = [cp.rows for cp in self._plans]
        self._finished: List[Tuple[_Task, object]] = []
        return self

    def start(self, task: _Task, fault) -> None:
        self._finished.append((task, self._run(task, fault)))

    def wait(self) -> List[Tuple[_Task, object]]:
        finished, self._finished = self._finished, []
        return finished

    def abort(self) -> None:
        """Nothing runs between tasks, so nothing is in flight."""

    def close(self) -> None:
        self._job = self._report = self._plans = None

    def _run(self, task: _Task, fault):
        job, ctx = self._job, self._job.ctx
        worker = threading.current_thread().name
        # Activate the job's context so code without a ctx resolves to it.
        with ctx.scope(), ctx.span(
            "parallel.chunk",
            chunk=task.slot,
            shard=task.slot,
            nz_start=task.start,
            nz_stop=task.stop,
            worker=worker,
        ):
            tick = time.perf_counter()
            try:
                ctx.check_health(f"{self.name}.chunk")
                kind = fault[0] if fault is not None else None
                if kind == "crash":
                    raise WorkerCrashError(f"injected crash (shard {task.slot})")
                if kind == "hang":
                    time.sleep(fault[1])
                cp = (
                    self._plans[task.slot]
                    if task.depth == 0
                    else get_chunk_plans(
                        job.tensor, [(task.start, task.stop)], job.memoize, ctx=ctx
                    )[0]
                )
                data = np.zeros((cp.n_rows, job.cols), dtype=np.float64)
                checksum = _shm.compute_partial(
                    job.indices[cp.start : cp.stop],
                    job.values[cp.start : cp.stop],
                    job.dim,
                    job.factor,
                    data,
                    cp.row_map,
                    cp.plan,
                    memoize=job.memoize,
                    kernel=job.kernel,
                    ctx=ctx,
                    fault=fault,
                )
                return _Partial(data, checksum)
            except (MemoryLimitError, *_RETRYABLE) as exc:
                return exc
            finally:
                _fill_chunk_report(
                    self._report, task.slot, time.perf_counter() - tick, worker
                )


class _WorkerHandle(Child):
    """One worker process and the parent's record of its task."""

    def __init__(self, worker_id: int, run_token: str) -> None:
        super().__init__(
            _shm.worker_main, (worker_id, run_token), f"s3ttmc-worker-{worker_id}"
        )
        self.worker_id = worker_id
        self.task: Optional[_Task] = None
        self.task_id = -1
        self.last_heard = 0.0
        self.result_name = ""


class _ProcessRunner:
    """Runs one execute's tasks on the shard owners, over their pipes.

    Task ranges cross the pipe in the owner's shard-local coordinates
    (its segments hold just its slice). Besides sending tasks and
    receiving partials, this runner owns what only a process boundary
    has: heartbeats, the hang kill, and respawning a lost owner, which
    re-ingests its shard from the parent's canonical segments (counted
    by ``parallel.shard_reingests``).
    """

    def __init__(
        self,
        backend: "ProcessBackend",
        job: ParallelJob,
        report: Optional[ParallelRunReport],
    ) -> None:
        if len(job.ranges) > backend.n_workers:
            # Shard k only ever runs on worker k: a shard without an
            # owner would wait forever.
            raise ValueError(
                f"{len(job.ranges)} shards need as many process workers; "
                f"this backend has {backend.n_workers}"
            )
        backend._ensure_workers()
        shards = backend._ensure_shards(job)
        backend._ensure_factor(job.factor)
        self.backend = backend
        self.job = job
        self.ctx = job.ctx
        self.policy = job.ctx.effective_fallback()
        self.report = report
        self.rows = [shard.rows for shard in shards]
        self.offsets = [shard.start for shard in shards]
        self.running: Dict[object, _WorkerHandle] = {}  # conn -> handle
        self.finished: List[Tuple[_Task, object]] = []
        self.respawns = 0
        self.task_seq = 0

    def start(self, task: _Task, fault) -> None:
        handle = next(h for h in self.backend._workers if h.worker_id == task.slot)
        offset = self.offsets[task.slot]
        budget = self.ctx.budget
        self.task_seq += 1
        handle.task = task
        handle.task_id = self.task_seq
        handle.last_heard = time.monotonic()
        self.running[handle.conn] = handle
        try:
            handle.conn.send(
                (
                    "chunk", self.task_seq, task.start - offset,
                    task.stop - offset, self.job.memoize, self.job.cols,
                    # The worker's mirrored budget starts from the
                    # parent's current usage.
                    (budget.limit_bytes, budget.in_use) if budget else None,
                    fault, self.policy.heartbeat_interval, self.job.kernel,
                )
            )
        except (OSError, ValueError):
            self.finished.append(self._lose(handle, "shard owner died while idle"))

    def wait(self) -> List[Tuple[_Task, object]]:
        finished, self.finished = self.finished, []
        if finished or not self.running:
            return finished
        timeout = _supervisor_wait_timeout(self.ctx, self.policy, self.running)
        for conn in _mp_wait(list(self.running), timeout):
            handle = self.running.get(conn)
            if handle is None:
                continue  # worker was lost earlier this round
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                finished.append(self._lose(handle, "worker died (pipe EOF)"))
                continue
            kind = msg[0]
            if msg[1] != handle.task_id:
                continue  # a message about a superseded dispatch
            if kind == "beat":
                handle.last_heard = time.monotonic()
            elif kind == "result":
                # Proactive result-segment announcement: recorded before
                # the first chunk_done so a worker killed mid-chunk
                # cannot leak its segment.
                self.backend._note_result_announce(handle, msg[2])
                handle.last_heard = time.monotonic()
            else:
                task = handle.task
                self._release(handle)
                if kind == "chunk_done":
                    finished.append((task, self._receive(handle, task, msg)))
                elif kind == "chunk_oom":
                    finished.append((task, MemoryLimitError(*msg[2:])))
                else:  # chunk_error: retried like a crash
                    reason = str(msg[2]).splitlines()[0]
                    finished.append((task, WorkerCrashError(f"worker error: {reason}")))
        if self.policy.chunk_timeout is not None:
            now = time.monotonic()
            for handle in list(self.running.values()):
                silent = now - handle.last_heard
                if silent > self.policy.chunk_timeout:
                    finished.append(
                        self._lose(handle, f"worker hung (silent for {silent:.2f}s)")
                    )
        return finished

    def abort(self) -> None:
        # Workers may be mid-chunk, wedged, or have unread replies in
        # their pipes; reset the pool so this backend (or its successor
        # after a fallback) starts clean.
        self.backend._reset_workers()

    def _release(self, handle: _WorkerHandle) -> None:
        self.running.pop(handle.conn, None)
        handle.task = None
        handle.task_id = -1

    def _receive(self, handle: _WorkerHandle, task: _Task, msg: tuple) -> _Partial:
        (
            _kind, _task_id, result_name, n_rows, checksum,
            build_s, numeric_s, hit, peak,
        ) = msg
        buffer = self.backend._attach_result(
            handle, result_name, n_rows, self.job.cols
        )
        budget = self.ctx.budget
        if budget is not None and peak:
            budget.observe_peak(peak)
        _fill_chunk_report(self.report, task.slot, numeric_s, f"w{handle.worker_id}")
        self.ctx.event(
            "parallel.chunk.done",
            chunk=task.slot,
            shard=task.slot,
            worker=handle.worker_id,
            attempt=task.attempt,
            numeric_seconds=numeric_s,
            build_seconds=build_s,
            plan_cache_hit=bool(hit),
        )
        # The worker reuses its result buffer for its next task.
        return _Partial(np.array(buffer, copy=True), checksum, bool(hit), build_s)

    def _lose(self, handle: _WorkerHandle, reason: str) -> Tuple[_Task, WorkerCrashError]:
        """Replace a lost shard owner; its task comes back as crashed."""
        task = handle.task
        self._release(handle)
        backend = self.backend
        code = backend._retire_worker(handle)
        reason = f"{reason}, exit code {code}"
        if self.respawns >= self.policy.max_respawns:
            # Nobody else holds this shard: the run cannot finish.
            raise BackendUnhealthyError(
                backend.name,
                f"shard {handle.worker_id} owner lost with respawn budget "
                f"exhausted ({reason})",
            )
        self.respawns += 1
        _note_incident(
            self.ctx, self.report, "parallel.worker_respawn",
            "parallel.worker_respawns", "respawns",
            worker=handle.worker_id, reason=reason,
        )
        # The fresh owner re-ingests the lost worker's shard.
        backend._send_state(backend._spawn_one(handle.worker_id))
        _note_incident(
            self.ctx, self.report, "parallel.shard_reingest",
            "parallel.shard_reingests", "shard_reingests",
            worker=handle.worker_id, shard=handle.worker_id, reason=reason,
        )
        return task, WorkerCrashError(reason)


class ProcessBackend(Backend):
    """Supervised persistent worker processes, each owning one shard.

    Workers are spawned lazily on the first :meth:`execute` and live
    until :meth:`close`; each worker's shard is written to shared memory
    once per (tensor, partition), the factor buffer is rewritten in place
    per call, and each worker caches its chunk plans across calls —
    iteration 2..n of a decomposition pays no symbolic cost on any core.

    Shard *k* is bound 1:1 to worker *k*: its tasks, OOM-split halves
    included, only ever run there, one at a time. Workers heartbeat
    while computing, silence past the policy's ``chunk_timeout`` gets
    the worker killed, and any worker loss (hang, crash, OS kill)
    triggers a respawn — the shard re-ingested from the parent's
    segments, plan caches rewarmed on demand — and a retry of its task.
    Shard partials merge through the deterministic pairwise tree, so
    recovered runs are bit-identical to clean ones and to the serial
    backend.
    """

    name = "process"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        *,
        run_token: Optional[str] = None,
    ) -> None:
        super().__init__(n_workers)
        # Every segment this backend (or its workers) creates is
        # namespaced under this token, so concurrent backends in one
        # parent can never collide on names or sweep each other.
        self._run_token = str(run_token) if run_token else os.urandom(4).hex()
        self._workers: List[_WorkerHandle] = []
        self._tensor_gen = 0
        self._owned: Dict[str, object] = {}  # label -> SharedMemory
        self._factor_view: Optional[np.ndarray] = None
        self._factor_spec = None
        self._attached_results: Dict[str, object] = {}  # name -> SharedMemory
        # Shard state: per-worker shard messages (worker_id ->
        # ("shard", ...)), the parent-side shard records, and the
        # (tensor, partition) they were built for.
        self._shard_token: Optional[tuple] = None
        self._shard_msgs: Dict[int, tuple] = {}
        self._shards: List[TensorShard] = []

    def _runner(self, job, report) -> _ProcessRunner:
        return _ProcessRunner(self, job, report)

    # -- worker lifecycle --------------------------------------------------
    def _spawn_one(self, worker_id: int) -> _WorkerHandle:
        handle = _WorkerHandle(worker_id, self._run_token)
        self._workers.append(handle)
        return handle

    def _ensure_workers(self) -> None:
        if not self._workers:
            for worker_id in range(self.n_workers):
                self._spawn_one(worker_id)

    def _send_state(self, handle: _WorkerHandle) -> None:
        """Bring a (re)spawned worker up to the current operand state.

        This is shard *re-ingest*: the worker receives only its own
        shard's segments (kept alive parent-side as the canonical slice
        copies), never the whole tensor.
        """
        msg = self._shard_msgs.get(handle.worker_id)
        if msg is not None:
            handle.conn.send(msg)
        if self._factor_spec is not None:
            handle.conn.send(("factor", self._factor_spec))

    def _send_to_workers(self, msg_for) -> None:
        """Send each worker ``msg_for(worker_id)`` (skipped when ``None``)."""
        for handle in list(self._workers):
            msg = msg_for(handle.worker_id)
            if msg is None:
                continue
            try:
                handle.conn.send(msg)
            except (OSError, ValueError):
                # A worker died while idle; replace it. _send_state runs
                # after the caller updated the pending state, so the
                # replacement receives `msg`'s content too.
                self._retire_worker(handle)
                self._send_state(self._spawn_one(handle.worker_id))

    def _retire_worker(self, handle: _WorkerHandle, grace=0.0) -> Optional[int]:
        """Stop a worker (at once by default: it is dead or wedged), remove
        it from the pool and reclaim what it held; returns its exit code."""
        if handle in self._workers:
            self._workers.remove(handle)
        code = handle.stop(grace)
        # A result segment announced just before it died may be unread
        # (poll raises OSError once close() closed the pipe).
        try:
            while handle.conn.poll():
                msg = handle.conn.recv()
                if msg[0] in ("result", "chunk_done"):
                    self._note_result_announce(handle, msg[2])
        except (EOFError, OSError):
            pass
        handle.close()
        if handle.result_name:
            # The worker owned its result segment; it died without
            # unlinking, so the parent must — this is the shm-leak fix
            # for abnormal worker exit.
            self._detach_result(handle.result_name)
            _shm.unlink_segment_by_name(handle.result_name)
            handle.result_name = ""
        return code

    def _reset_workers(self, grace: float = 0.0) -> None:
        """Stop the pool (at once by default: the fatal-error path); the
        next execute rebuilds it."""
        for handle in list(self._workers):
            self._retire_worker(handle, grace)
        self._factor_view = None
        self._factor_spec = None
        self._drop_shards()

    def _drop_shards(self) -> None:
        """Unlink shard segments and forget the shard layout."""
        for label in [k for k in self._owned if k.startswith("shard")]:
            _shm.close_and_unlink(self._owned.pop(label))
        self._shard_token = None
        self._shard_msgs = {}
        self._shards = []

    def _ensure_shards(self, job: ParallelJob) -> List[TensorShard]:
        """Ship each worker its disjoint shard.

        One shard per chunk range, bound to the same-numbered worker.
        The parent keeps every shard's segments alive in ``self._owned``
        — they are the canonical copies a respawned owner re-ingests via
        :meth:`_send_state`. A new tensor or partition re-ships.
        """
        # tensor_generation (not id()) — generations are never reused, so
        # a new tensor at a recycled address cannot alias a stale token.
        token = (tensor_generation(job.tensor), tuple(job.ranges), job.dim)
        if token == self._shard_token:
            return self._shards
        self._drop_shards()
        shards = shards_for_ranges(job.tensor, job.ranges, job.rank)
        self._tensor_gen += 1
        gen = self._tensor_gen
        tok = self._run_token
        for shard in shards:
            idx_shm, _v, idx_spec = _shm.create_shared_array(
                shard.indices, run_token=tok
            )
            val_shm, _v, val_spec = _shm.create_shared_array(
                shard.values, run_token=tok
            )
            self._owned[f"shard{shard.shard_id}:indices"] = idx_shm
            self._owned[f"shard{shard.shard_id}:values"] = val_shm
            self._shard_msgs[shard.shard_id] = (
                "shard", gen, shard.shard_id, idx_spec, val_spec, job.dim
            )
        self._shards = shards
        self._shard_token = token
        # Ship each worker its own shard (workers beyond the shard count
        # stay idle). State is already updated, so a worker found dead
        # here is respawned by _send_state with the correct shard.
        self._send_to_workers(self._shard_msgs.get)
        return shards

    def _ensure_factor(self, factor: np.ndarray) -> None:
        if (
            self._factor_view is not None
            and self._factor_view.shape == factor.shape
        ):
            self._factor_view[...] = factor  # in-place: workers keep mapping
            return
        _shm.close_and_unlink(self._owned.pop("factor", None))
        shm, view, spec = _shm.create_shared_array(
            factor, run_token=self._run_token
        )
        self._owned["factor"] = shm
        self._factor_view = view
        self._factor_spec = spec
        self._send_to_workers(lambda _worker_id: ("factor", spec))

    def close(self) -> None:
        for handle in self._workers:
            handle.close()  # EOF: the worker tears down and exits
        self._reset_workers(STOP_TIMEOUT_S)
        for name in list(self._attached_results):
            self._detach_result(name)
        for label in list(self._owned):
            _shm.close_and_unlink(self._owned.pop(label))
        # Per-run sweep: reclaim anything in this backend's namespace the
        # explicit teardown above missed (crash paths). Never touches a
        # concurrent backend's segments.
        _shm.sweep_run_segments(self._run_token)

    @property
    def run_token(self) -> str:
        """Namespace token stamped on every segment this backend creates."""
        return self._run_token

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # -- result segments ---------------------------------------------------
    def _note_result_announce(self, handle: _WorkerHandle, name: str) -> None:
        """Record a worker's result-segment name from its announcement.

        Workers announce their (worker-owned) result segment as soon as
        it is created or regrown — *before* computing the chunk — so the
        parent's :meth:`_retire_worker` unlink path covers a worker
        killed mid-first-chunk. A regrow (the worker unlinked its old
        buffer) makes the previous attachment stale; drop it here.
        """
        if handle.result_name and handle.result_name != name:
            self._detach_result(handle.result_name)
        handle.result_name = name

    def _detach_result(self, name: str) -> None:
        shm = self._attached_results.pop(name, None)
        if shm is not None:
            try:
                shm.close()
            except Exception:
                pass

    def _attach_result(
        self, handle: _WorkerHandle, name: str, n_rows: int, cols: int
    ) -> np.ndarray:
        self._note_result_announce(handle, name)
        shm = self._attached_results.get(name)
        if shm is None:
            spec = _shm.ShmArraySpec(name, (1,), "float64")
            shm, _view = _shm.attach_shared_array(spec)
            self._attached_results[name] = shm
        return np.ndarray((n_rows, cols), dtype=np.float64, buffer=shm.buf)


BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}


def make_backend(
    name: str,
    n_workers: Optional[int] = None,
    *,
    run_token: Optional[str] = None,
) -> Backend:
    """Instantiate a backend by name (``serial`` / ``process``).

    ``run_token`` namespaces the process backend's shared-memory
    segments (usually the creating :class:`ExecContext`'s token); the
    serial backend creates no segments and ignores it.
    """
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {sorted(BACKENDS)}"
        ) from None
    if name == "process":
        return cls(n_workers, run_token=run_token)
    return cls(n_workers)
