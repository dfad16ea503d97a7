"""Pluggable execution backends for the parallel S³TTMc executor.

Three backends share one contract — evaluate a
:class:`~repro.parallel.executor.ParallelJob`'s owned shards (one
disjoint non-zero range per worker, see :mod:`repro.parallel.sharding`)
into compact row-block partials, and reduce those through the
deterministic :func:`~repro.parallel.sharding.hierarchical_merge` into
one ``(I, S_{N-1,R})`` output:

``serial``
    In-line loop over shards on the calling thread. The bitwise
    reference the other two are checked against, and the single-core
    fallback of last resort.
``thread``
    Persistent :class:`~concurrent.futures.ThreadPoolExecutor`, one
    shard per thread. NumPy's heavy vector ops release the GIL, so
    gathers/segment-sums overlap on multi-core builds.
``process``
    Persistent worker processes fed via ``multiprocessing`` pipes, each
    holding only its own shard in shared memory
    (:mod:`repro.parallel.shm`): true multi-core execution in pure
    NumPy. Workers cache their chunk plans across calls, so only the
    first kernel call of a decomposition pays symbolic (lattice-build)
    cost.

Fault tolerance
---------------
All backends run chunks through the same resilience envelope, governed
by the context's :class:`~repro.runtime.faults.FallbackPolicy`:

* transient chunk failures (worker crash, corrupt partial, injected
  error) are retried with exponential backoff up to
  ``policy.max_retries`` per chunk;
* a chunk that exceeds the memory budget is **bisected** along the
  non-zero axis via the balanced partitioner and its halves retried
  recursively (up to ``policy.max_oom_splits`` deep) — the run degrades
  to smaller intermediates instead of dying;
* every partial carries a checksum taken at the producer; a mismatch at
  the consumer marks the partial corrupt and retries the chunk
  (``policy.verify_partials``).

The process backend additionally *supervises* its workers: each running
chunk is covered by a heartbeat (sent by the worker, suppressed only if
the process is truly wedged), silence longer than
``policy.chunk_timeout`` gets the worker killed, and dead workers —
killed, crashed, or OOM-killed by the OS — are detected via pipe EOF,
respawned (re-ingesting their shard from the parent's canonical copy,
plan caches rewarmed on demand), and their chunk requeued. When a backend exhausts
its retry/respawn budget it raises
:class:`~repro.runtime.faults.BackendUnhealthyError`, which the executor
turns into a degrade (process → thread → serial) per the policy.

Run-level health rides on the context (:mod:`repro.runtime.health`):
every chunk attempt and every supervisor round calls
``ctx.check_health()`` — cooperative cancellation and deadlines trip at
chunk boundaries, and in-flight process workers are killed and the pool
reset on the way out. Each partial's producer-side checksum doubles as
a free finiteness sentinel (``policy.check_finite``); persistently
non-finite partials raise
:class:`~repro.runtime.health.NumericalHealthError` rather than
degrading the backend, since a weaker backend cannot fix numerics.

Reductions are deterministic: shard partials are staged per slot and the
pairwise merge tree depends only on the shard layout, so reruns —
including runs where chunks were retried or executed by different
workers — produce bit-identical output on every backend. (OOM splits
change a chunk's internal summation order; results then agree to
rounding.)

Everything is observable: ``parallel.retries``, ``parallel.worker_respawns``,
``parallel.oom_splits``, ``parallel.corrupt_partials`` counters plus
per-incident trace events, and the matching
:class:`~repro.parallel.executor.ParallelRunReport` fields.

Backends are context managers; ``close()`` is idempotent. Create them
directly, via :func:`make_backend`, or implicitly through
``parallel_s3ttmc(..., backend="thread")`` /
``hooi(..., ctx=ExecContext(execution="process"))``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import wait as _mp_wait
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..core.engine import lattice_ttmc
from ..obs import trace as _trace
from ..runtime.budget import MemoryLimitError
from ..runtime.context import ExecContext, resolve_context, tensor_generation
from ..runtime.faults import (
    BackendUnhealthyError,
    CorruptPartialError,
    FallbackPolicy,
    FaultInjector,
    InjectedFault,
    WorkerCrashError,
)
from ..runtime.health import NumericalHealthError
from . import shm as _shm
from .executor import (
    ChunkPlan,
    ParallelJob,
    ParallelRunReport,
    chunk_row_block,
    get_chunk_plans,
)
from .partition import balanced_partition, estimate_nonzero_costs
from .sharding import TensorShard, hierarchical_merge, shards_for_ranges

__all__ = [
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BACKENDS",
    "START_METHOD_ENV_VAR",
    "default_workers",
    "make_backend",
]

#: Environment override for the process backend's start method
#: (``fork`` / ``spawn`` / ``forkserver``); CI uses it to exercise the
#: spawn path on platforms that default to fork.
START_METHOD_ENV_VAR = "REPRO_START_METHOD"


def default_workers() -> int:
    """Default worker count: one per core."""
    return max(1, os.cpu_count() or 1)


class _NonFinitePartialError(RuntimeError):
    """Internal: a chunk partial's checksum came back non-finite.

    Retried like other transient chunk failures, but exhaustion raises
    :class:`~repro.runtime.health.NumericalHealthError` instead of
    :class:`~repro.runtime.faults.BackendUnhealthyError` — degrading to
    a weaker backend cannot fix numerics.
    """


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


def _resilient_partial(
    job: ParallelJob,
    ctx: ExecContext,
    policy: FallbackPolicy,
    injector: Optional[FaultInjector],
    backend_name: str,
    slot: int,
    cp: ChunkPlan,
    report: Optional[ParallelRunReport],
) -> np.ndarray:
    """Compact ``(n_rows, cols)`` partial for one chunk, with recovery.

    The in-process resilience envelope shared by the serial and thread
    backends: retries transient failures (injected crash/error, corrupt
    partial) with backoff, recursively bisects on
    :class:`~repro.runtime.budget.MemoryLimitError`, and verifies each
    partial's checksum. An injected *hang* here is just a delay — there
    is no process boundary to kill across, so kill-based hang recovery is
    a process-backend capability. Raises
    :class:`~repro.runtime.faults.BackendUnhealthyError` once a chunk
    exhausts its retries.
    """

    def eval_range(start, stop, rows, row_map, plan, depth) -> np.ndarray:
        attempt = 0
        while True:
            # Cooperative cancellation/deadline checkpoint: once per
            # chunk attempt, before any kernel work starts.
            ctx.check_health(f"{backend_name}.chunk")
            fault = (
                injector.arm(
                    "chunk", backend=backend_name, slot=slot, attempt=attempt
                )
                if injector is not None
                else None
            )
            try:
                if fault is not None:
                    if fault.kind == "crash":
                        raise WorkerCrashError(
                            f"injected crash (chunk {slot})"
                        )
                    if fault.kind == "error":
                        raise InjectedFault(f"injected error (chunk {slot})")
                    if fault.kind in ("hang", "slow"):
                        time.sleep(fault.seconds)
                    if fault.kind == "oom":
                        raise MemoryLimitError("injected chunk oom", 0, 0, 0)
                partial = np.zeros((rows.shape[0], job.cols), dtype=np.float64)
                lattice_ttmc(
                    job.indices[start:stop],
                    job.values[start:stop],
                    job.dim,
                    job.factor,
                    intermediate="compact",
                    memoize=job.memoize,
                    kernel=job.kernel,
                    out=partial,
                    out_row_map=row_map,
                    plan=plan,
                    ctx=ctx,
                )
                # An injected nan poisons the partial *before* the
                # checksum (unlike corrupt, which evades it): the
                # non-finite value rides the checksum to the sentinel.
                if fault is not None and fault.kind == "nan" and partial.size:
                    partial.flat[0] = np.nan
                checksum = float(partial.sum())
                if fault is not None and fault.kind == "corrupt" and partial.size:
                    partial.flat[0] += fault.scale
                if policy.check_finite and not math.isfinite(checksum):
                    raise _NonFinitePartialError(
                        f"chunk {slot} partial is non-finite "
                        f"(checksum {checksum!r})"
                    )
                if policy.verify_partials and not _checksums_match(
                    checksum, float(partial.sum())
                ):
                    raise CorruptPartialError(
                        f"chunk {slot} partial failed checksum verification"
                    )
                return partial
            except MemoryLimitError as oom:
                if depth >= policy.max_oom_splits or stop - start <= 1:
                    raise
                _note_incident(
                    ctx,
                    report,
                    "parallel.oom_split",
                    "parallel.oom_splits",
                    "oom_splits",
                    backend=backend_name,
                    chunk=slot,
                    nz_start=start,
                    nz_stop=stop,
                    depth=depth,
                    label=oom.label,
                )
                halves = _bisect_range(job.indices, start, stop, job.rank)
                sub_plans = get_chunk_plans(
                    job.tensor, halves, job.memoize, ctx=ctx
                )
                partial = np.zeros((rows.shape[0], job.cols), dtype=np.float64)
                for sp in sub_plans:
                    sub = eval_range(
                        sp.start, sp.stop, sp.rows, sp.row_map, sp.plan,
                        depth + 1,
                    )
                    partial[np.searchsorted(rows, sp.rows)] += sub
                return partial
            except (
                WorkerCrashError,
                CorruptPartialError,
                InjectedFault,
                _NonFinitePartialError,
            ) as exc:
                if isinstance(exc, CorruptPartialError):
                    _note_incident(
                        ctx,
                        report,
                        "parallel.corrupt_partial",
                        "parallel.corrupt_partials",
                        "corrupt_partials",
                        backend=backend_name,
                        chunk=slot,
                    )
                elif isinstance(exc, _NonFinitePartialError):
                    _note_incident(
                        ctx,
                        report,
                        "health.nonfinite_partial",
                        "health.nonfinite_partials",
                        "nonfinite_partials",
                        backend=backend_name,
                        chunk=slot,
                    )
                attempt += 1
                if attempt > policy.max_retries:
                    if isinstance(exc, _NonFinitePartialError):
                        raise NumericalHealthError(
                            f"chunk {slot} partial stayed non-finite after "
                            f"{attempt} attempts"
                        ) from exc
                    raise BackendUnhealthyError(
                        backend_name,
                        f"chunk {slot} failed after {attempt} attempts: {exc}",
                    ) from exc
                _note_incident(
                    ctx,
                    report,
                    "parallel.retry",
                    "parallel.retries",
                    "retries",
                    backend=backend_name,
                    chunk=slot,
                    attempt=attempt,
                    reason=str(exc),
                )
                backoff = policy.backoff(attempt)
                if backoff > 0:
                    time.sleep(backoff)

    return eval_range(cp.start, cp.stop, cp.rows, cp.row_map, cp.plan, 0)


class Backend(ABC):
    """One parallel execution strategy with reusable worker state."""

    name: str = "abstract"

    def __init__(self, n_workers: Optional[int] = None) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers) if n_workers else default_workers()

    @abstractmethod
    def execute(
        self, job: ParallelJob, report: Optional[ParallelRunReport] = None
    ) -> np.ndarray:
        """Run ``job`` and return the reduced ``(dim, cols)`` output."""

    def close(self) -> None:
        """Release worker state (idempotent)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- shared helpers ----------------------------------------------------
    @staticmethod
    def _job_ctx(job: ParallelJob) -> ExecContext:
        return resolve_context(job.ctx)

    @staticmethod
    def _handoff(job: ParallelJob) -> None:
        resolve_context(job.ctx).release_bytes(job.dim * job.cols * 8, "Y (parallel)")

    @staticmethod
    def _fill_chunk_report(
        report: Optional[ParallelRunReport],
        slot: int,
        seconds: float,
        worker: Optional[str] = None,
    ) -> None:
        if report is None:
            return
        if slot < len(report.chunk_seconds):
            report.chunk_seconds[slot] += seconds
        if worker is not None:
            report.worker_busy[worker] = report.worker_busy.get(worker, 0.0) + seconds


class SerialBackend(Backend):
    """Loop over shards on the calling thread (reference backend).

    Every shard partial is computed in slot order, then merged through
    the deterministic pairwise tree — the bitwise anchor the thread and
    process backends are checked against. All shard partials are staged
    until the merge, so reduction memory is ``Σ_c rows_c·S``.
    """

    name = "serial"

    def __init__(self, n_workers: Optional[int] = None) -> None:
        super().__init__(n_workers or 1)

    def execute(
        self, job: ParallelJob, report: Optional[ParallelRunReport] = None
    ) -> np.ndarray:
        ctx = self._job_ctx(job)
        policy = ctx.effective_fallback()
        injector = ctx.faults
        plans = get_chunk_plans(
            job.tensor, job.ranges, job.memoize, report=report, ctx=ctx
        )
        partial_bytes = sum(cp.n_rows for cp in plans) * job.cols * 8
        ctx.request_bytes(partial_bytes, "parallel partials (sharded)")
        ctx.request_bytes(job.dim * job.cols * 8, "Y (parallel)")
        try:
            partials: List[Tuple[np.ndarray, np.ndarray]] = []
            for slot, cp in enumerate(plans):
                with ctx.span(
                    "parallel.chunk",
                    chunk=slot,
                    shard=slot,
                    nz_start=cp.start,
                    nz_stop=cp.stop,
                ):
                    tick = time.perf_counter()
                    partial = _resilient_partial(
                        job, ctx, policy, injector, self.name, slot, cp, report
                    )
                    self._fill_chunk_report(
                        report, slot, time.perf_counter() - tick, worker=self.name
                    )
                partials.append((cp.rows, partial))
            return hierarchical_merge(
                partials, job.dim, job.cols, ctx=ctx, report=report
            )
        finally:
            ctx.release_bytes(partial_bytes, "parallel partials (sharded)")
            self._handoff(job)


class ThreadBackend(Backend):
    """Persistent thread pool, one shard per thread.

    Shard partials are computed concurrently and merged by the
    deterministic pairwise tree on the calling thread — bitwise-identical
    to the serial backend regardless of which thread finished when.
    """

    name = "thread"

    def __init__(self, n_workers: Optional[int] = None) -> None:
        super().__init__(n_workers)
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="s3ttmc"
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def execute(
        self, job: ParallelJob, report: Optional[ParallelRunReport] = None
    ) -> np.ndarray:
        ctx = self._job_ctx(job)
        policy = ctx.effective_fallback()
        injector = ctx.faults
        plans = get_chunk_plans(
            job.tensor, job.ranges, job.memoize, report=report, ctx=ctx
        )
        partial_bytes = sum(cp.n_rows for cp in plans) * job.cols * 8
        ctx.request_bytes(partial_bytes, "parallel partials (sharded)")
        ctx.request_bytes(job.dim * job.cols * 8, "Y (parallel)")
        parent_span = _trace.current_span_id()
        partials: List[Optional[np.ndarray]] = [None] * len(plans)

        def run(slot: int) -> None:
            cp = plans[slot]
            # Activate the job's context on this worker thread so code
            # without a ctx resolves to it, as on the submitting thread.
            with ctx.scope(), ctx.span(
                "parallel.chunk",
                parent_id=parent_span,
                chunk=slot,
                shard=slot,
                nz_start=cp.start,
                nz_stop=cp.stop,
            ) as chunk_span:
                chunk_span.set_attr("worker", threading.current_thread().name)
                tick = time.perf_counter()
                partials[slot] = _resilient_partial(
                    job, ctx, policy, injector, self.name, slot, cp, report
                )
                self._fill_chunk_report(
                    report,
                    slot,
                    time.perf_counter() - tick,
                    worker=threading.current_thread().name,
                )

        try:
            if len(plans) <= 1:
                for slot in range(len(plans)):
                    run(slot)
            else:
                list(self._ensure_pool().map(run, range(len(plans))))
            return hierarchical_merge(
                [(cp.rows, partial) for cp, partial in zip(plans, partials)],
                job.dim,
                job.cols,
                ctx=ctx,
                report=report,
            )
        finally:
            ctx.release_bytes(partial_bytes, "parallel partials (sharded)")
            self._handoff(job)


class _WorkerHandle:
    """Parent-side record of one worker process."""

    __slots__ = (
        "worker_id",
        "proc",
        "conn",
        "task",
        "task_id",
        "last_heard",
        "result_name",
    )

    def __init__(self, worker_id: int, proc, conn) -> None:
        self.worker_id = worker_id
        self.proc = proc
        self.conn = conn
        self.task: Optional[_ChunkTask] = None
        self.task_id = -1
        self.last_heard = 0.0
        self.result_name = ""


class _ChunkTask:
    """One schedulable unit: a chunk slot or an OOM-split sub-range."""

    __slots__ = ("slot", "start", "stop", "rows", "attempt", "depth")

    def __init__(self, slot, start, stop, rows, attempt=0, depth=0) -> None:
        self.slot = slot
        self.start = start
        self.stop = stop
        self.rows = rows
        self.attempt = attempt
        self.depth = depth


class ProcessBackend(Backend):
    """Supervised persistent worker processes, each owning one shard.

    Workers are spawned lazily on the first :meth:`execute` and live
    until :meth:`close`; each worker's shard is written to shared memory
    once per (tensor, partition), the factor buffer is rewritten in place
    per call, and each worker caches its chunk plans across calls —
    iteration 2..n of a decomposition pays no symbolic cost on any core.

    Chunks are dispatched **one at a time** per owner and supervised:
    workers heartbeat while computing, silence past the policy's
    ``chunk_timeout`` gets the worker killed, and any worker loss (hang,
    crash, OS kill) triggers a respawn — the shard re-ingested from the
    parent's segments, plan caches rewarmed on demand — and a bounded
    requeue of its chunk. Chunk OOM replies split the chunk instead of
    failing the run. Shard partials merge through the deterministic
    pairwise tree, so recovered runs are bit-identical to clean ones.
    """

    name = "process"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        *,
        start_method: Optional[str] = None,
        run_token: Optional[str] = None,
    ) -> None:
        super().__init__(n_workers)
        # Every segment this backend (or its workers) creates is
        # namespaced under this token, so concurrent backends in one
        # parent can never collide on names or sweep each other.
        self._run_token = str(run_token) if run_token else os.urandom(4).hex()
        if start_method is None:
            start_method = os.environ.get(START_METHOD_ENV_VAR) or None
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        # spawn-started processes have private resource trackers; see
        # repro.parallel.shm.attach_shared_array.
        self._untrack_attach = start_method != "fork"
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

    # -- worker lifecycle --------------------------------------------------
    def _spawn_one(self, worker_id: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_shm.worker_main,
            args=(child_conn, worker_id, self._untrack_attach, self._run_token),
            name=f"s3ttmc-worker-{worker_id}",
            daemon=True,
        )
        # Under a fork start method, forking while a sibling thread is
        # mid segment-create/attach would clone a held resource-tracker
        # lock into the child, deadlocking its first attach. Holding the
        # tracker guard across the fork makes spawn and segment traffic
        # mutually exclusive (see shm.tracker_guard).
        with _shm.tracker_guard():
            proc.start()
        child_conn.close()
        return _WorkerHandle(worker_id, proc, parent_conn)

    def _ensure_workers(self) -> None:
        if self._workers:
            return
        if not self._untrack_attach:
            # Fork path: start the resource tracker *before* forking so
            # every worker inherits it. With one shared tracker,
            # register/unregister pairs from creators and attachers
            # deduplicate and segment cleanup is exact (no spurious
            # "leaked shared_memory" warnings from per-worker trackers).
            try:  # pragma: no cover - tracker internals vary across versions
                from multiprocessing import resource_tracker

                with _shm.tracker_guard():
                    resource_tracker.ensure_running()
            except Exception:
                pass
        self._workers = [
            self._spawn_one(worker_id) for worker_id in range(self.n_workers)
        ]

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
            except (OSError, BrokenPipeError, ValueError):
                # A worker died while idle; replace it. _send_state runs
                # after the caller updated the pending state, so the
                # replacement receives `msg`'s content too.
                self._retire_worker(handle, kill=True)
                fresh = self._spawn_one(handle.worker_id)
                self._workers.append(fresh)
                self._send_state(fresh)

    def _retire_worker(self, handle: _WorkerHandle, *, kill: bool) -> None:
        """Remove a worker from the pool and reclaim everything it held."""
        if handle in self._workers:
            self._workers.remove(handle)
        if kill and handle.proc.is_alive():
            handle.proc.terminate()
        handle.proc.join(timeout=5)
        if handle.proc.is_alive():  # pragma: no cover - stuck worker
            handle.proc.kill()
            handle.proc.join(timeout=5)
        try:
            handle.conn.close()
        except Exception:
            pass
        if handle.result_name:
            # The worker owned its result segment; it died without
            # unlinking, so the parent must — this is the shm-leak fix
            # for abnormal worker exit.
            old = self._attached_results.pop(handle.result_name, None)
            if old is not None:
                try:
                    old.close()
                except Exception:
                    pass
            _shm.unlink_segment_by_name(handle.result_name)
            handle.result_name = ""

    def _reset_workers(self) -> None:
        """Hard-stop the pool (fatal-error path); next execute rebuilds."""
        for handle in list(self._workers):
            self._retire_worker(handle, kill=True)
        self._workers = []
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
            try:
                handle.conn.send(("close",))
            except (OSError, BrokenPipeError, ValueError):
                pass
        for handle in self._workers:
            handle.proc.join(timeout=5)
            if handle.proc.is_alive():  # pragma: no cover - stuck worker
                handle.proc.terminate()
                handle.proc.join(timeout=5)
            try:
                handle.conn.close()
            except Exception:
                pass
            if handle.result_name:
                # Normally the worker unlinks its own buffer on close;
                # sweep here in case it was terminated.
                _shm.unlink_segment_by_name(handle.result_name)
        self._workers = []
        for shm in self._attached_results.values():
            try:
                shm.close()
            except Exception:
                pass
        self._attached_results = {}
        for label in list(self._owned):
            _shm.close_and_unlink(self._owned.pop(label))
        self._factor_view = None
        self._factor_spec = None
        self._drop_shards()
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

    # -- execution ---------------------------------------------------------
    def execute(
        self, job: ParallelJob, report: Optional[ParallelRunReport] = None
    ) -> np.ndarray:
        """One shard per worker, shard-local chunks.

        Each shard is bound 1:1 to its same-numbered owner worker — tasks
        for shard *k* only ever run on worker *k*, in the worker's local
        non-zero coordinates (its segments hold just the slice). Losing
        an owner triggers a respawn plus shard *re-ingest* (the parent
        re-sends the shard's canonical segments — counted by
        ``parallel.shard_reingests``) and a bounded requeue. OOM splits
        bisect within the shard and stay on the owner. Completed shard
        row-blocks merge through the deterministic hierarchical
        reduction, so recovered runs are bit-identical to clean ones and
        to the serial/thread backends.
        """
        if len(job.ranges) > self.n_workers:
            # Shard k only ever runs on worker k: a shard without an
            # owner would wait forever.
            raise ValueError(
                f"{len(job.ranges)} shards need as many process workers; "
                f"this backend has {self.n_workers}"
            )
        ctx = self._job_ctx(job)
        policy = ctx.effective_fallback()
        injector = ctx.faults
        self._ensure_workers()
        shards = self._ensure_shards(job)
        self._ensure_factor(job.factor)
        collector = ctx.collector

        total_rows = sum(s.n_rows for s in shards)
        partial_bytes = total_rows * job.cols * 8
        ctx.request_bytes(partial_bytes, "parallel partials (sharded)")
        ctx.request_bytes(job.dim * job.cols * 8, "Y (parallel)")
        blocks = [
            np.zeros((s.n_rows, job.cols), dtype=np.float64) for s in shards
        ]
        budget = ctx.budget
        budget_spec = (
            (budget.limit_bytes, budget.in_use) if budget is not None else None
        )

        # Per-owner queues in shard-LOCAL coordinates: [0, n_nz) of the
        # worker's own slice (the parent maps back via shard.start).
        queues: Dict[int, Deque[_ChunkTask]] = {
            s.shard_id: deque([_ChunkTask(s.shard_id, 0, s.n_nz, s.rows)])
            for s in shards
        }
        running: Dict[object, _WorkerHandle] = {}  # conn -> handle
        outstanding = {s.shard_id: 1 for s in shards}
        split_slots: set = set()
        sub_partials: Dict[int, List[Tuple[int, np.ndarray, np.ndarray]]] = {}
        task_seq = 0
        respawns_used = 0
        stats = {"hits": 0, "misses": 0, "build": 0.0, "reduce": 0.0}

        def handle_for(worker_id: int) -> Optional[_WorkerHandle]:
            for handle in self._workers:
                if handle.worker_id == worker_id:
                    return handle
            return None

        def release(handle: _WorkerHandle) -> None:
            running.pop(handle.conn, None)
            handle.task = None
            handle.task_id = -1

        def retry_task(task: _ChunkTask, reason: str, *, health: bool = False) -> None:
            task.attempt += 1
            if task.attempt > policy.max_retries:
                if health:
                    raise NumericalHealthError(
                        f"shard {task.slot} chunk [{task.start},{task.stop}) "
                        f"stayed non-finite after {task.attempt} attempts"
                    )
                raise BackendUnhealthyError(
                    self.name,
                    f"shard {task.slot} chunk [{task.start},{task.stop}) "
                    f"failed after {task.attempt} attempts: {reason}",
                )
            _note_incident(
                ctx, report, "parallel.retry", "parallel.retries", "retries",
                backend=self.name, chunk=task.slot, shard=task.slot,
                attempt=task.attempt, reason=reason,
            )
            backoff = policy.backoff(task.attempt)
            if backoff > 0:
                time.sleep(backoff)
            queues[task.slot].append(task)

        def lose_worker(handle: _WorkerHandle, reason: str, *, kill: bool) -> None:
            nonlocal respawns_used
            running.pop(handle.conn, None)
            task = handle.task
            worker_id = handle.worker_id
            self._retire_worker(handle, kill=kill)
            owns_shard = worker_id in self._shard_msgs
            if respawns_used >= policy.max_respawns:
                if owns_shard:
                    # Nobody else holds this shard: the run cannot finish.
                    raise BackendUnhealthyError(
                        self.name,
                        f"shard {worker_id} owner lost with respawn budget "
                        f"exhausted ({reason})",
                    )
                return
            respawns_used += 1
            _note_incident(
                ctx, report, "parallel.worker_respawn",
                "parallel.worker_respawns", "respawns",
                worker=worker_id, reason=reason,
            )
            fresh = self._spawn_one(worker_id)
            self._workers.append(fresh)
            self._send_state(fresh)  # re-ingests the worker's shard
            if owns_shard:
                _note_incident(
                    ctx, report, "parallel.shard_reingest",
                    "parallel.shard_reingests", "shard_reingests",
                    worker=worker_id, shard=worker_id, reason=reason,
                )
            if task is not None:
                retry_task(task, reason)

        def split_task(task: _ChunkTask, oom: MemoryLimitError) -> None:
            if task.depth >= policy.max_oom_splits or task.stop - task.start <= 1:
                raise oom
            shard = shards[task.slot]
            _note_incident(
                ctx, report, "parallel.oom_split", "parallel.oom_splits",
                "oom_splits", backend=self.name, chunk=task.slot,
                shard=task.slot, nz_start=shard.start + task.start,
                nz_stop=shard.start + task.stop, depth=task.depth,
                label=oom.label,
            )
            split_slots.add(task.slot)
            halves = _bisect_range(
                job.indices,
                shard.start + task.start,
                shard.start + task.stop,
                job.rank,
            )
            outstanding[task.slot] += len(halves) - 1
            for gs, ge in halves:
                rows_sub, _map = chunk_row_block(job.indices[gs:ge], job.dim)
                queues[task.slot].append(
                    _ChunkTask(
                        task.slot,
                        gs - shard.start,
                        ge - shard.start,
                        rows_sub,
                        depth=task.depth + 1,
                    )
                )

        def merge_split_slot(slot: int) -> None:
            shard = shards[slot]
            block = blocks[slot]
            # Start-ordered merge: the summation order is a function of
            # the split tree alone, never of completion order.
            for _start, rows_sub, part in sorted(
                sub_partials.pop(slot, []), key=lambda item: item[0]
            ):
                block[np.searchsorted(shard.rows, rows_sub)] += part

        def finish(handle: _WorkerHandle, msg: tuple) -> None:
            (
                _kind, _task_id, result_name, n_rows, checksum,
                build_s, numeric_s, hit, peak,
            ) = msg
            task = handle.task
            buffer = self._attach_result(handle, result_name, n_rows, job.cols)
            if policy.check_finite and not math.isfinite(checksum):
                _note_incident(
                    ctx, report, "health.nonfinite_partial",
                    "health.nonfinite_partials", "nonfinite_partials",
                    backend=self.name, chunk=task.slot, shard=task.slot,
                    worker=handle.worker_id,
                )
                release(handle)
                retry_task(task, "non-finite partial", health=True)
                return
            if policy.verify_partials and not _checksums_match(
                checksum, float(buffer.sum())
            ):
                _note_incident(
                    ctx, report, "parallel.corrupt_partial",
                    "parallel.corrupt_partials", "corrupt_partials",
                    backend=self.name, chunk=task.slot, shard=task.slot,
                    worker=handle.worker_id,
                )
                release(handle)
                retry_task(task, "corrupt partial (checksum mismatch)")
                return
            if budget is not None and peak:
                budget.observe_peak(peak)
            tick = time.perf_counter()
            if task.slot in split_slots:
                sub_partials.setdefault(task.slot, []).append(
                    (task.start, task.rows, np.array(buffer, copy=True))
                )
            else:
                blocks[task.slot][...] = buffer
            outstanding[task.slot] -= 1
            if outstanding[task.slot] == 0 and task.slot in split_slots:
                merge_split_slot(task.slot)
            stats["reduce"] += time.perf_counter() - tick
            stats["hits"] += bool(hit)
            stats["misses"] += not hit
            stats["build"] += build_s
            self._fill_chunk_report(
                report, task.slot, numeric_s, worker=f"w{handle.worker_id}"
            )
            if collector is not None:
                _trace.event(
                    "parallel.chunk.done",
                    collector=collector,
                    chunk=task.slot,
                    shard=task.slot,
                    worker=handle.worker_id,
                    attempt=task.attempt,
                    numeric_seconds=numeric_s,
                    build_seconds=build_s,
                    plan_cache_hit=bool(hit),
                )
            release(handle)

        def dispatch_owner(worker_id: int) -> None:
            nonlocal task_seq
            queue = queues.get(worker_id)
            if not queue:
                return
            handle = handle_for(worker_id)
            if handle is None or handle.conn in running:
                return
            task = queue.popleft()
            fault = (
                injector.arm(
                    "chunk", backend=self.name, slot=task.slot,
                    attempt=task.attempt, worker=worker_id, shard=task.slot,
                )
                if injector is not None
                else None
            )
            task_seq += 1
            try:
                handle.conn.send(
                    (
                        "chunk", task_seq, task.start, task.stop,
                        job.memoize, job.cols, budget_spec,
                        fault.payload() if fault is not None else None,
                        policy.heartbeat_interval, job.kernel,
                    )
                )
            except (OSError, BrokenPipeError, ValueError):
                queues[task.slot].appendleft(task)
                lose_worker(handle, "shard owner died while idle", kill=True)
                return
            handle.task = task
            handle.task_id = task_seq
            handle.last_heard = time.monotonic()
            running[handle.conn] = handle

        try:
            while running or any(queues.values()):
                # Raising here escapes into the BaseException handler
                # below: in-flight owners are killed and the pool reset,
                # so a cancelled/expired run leaves nothing running.
                ctx.check_health("process.supervisor")
                for worker_id in list(queues):
                    dispatch_owner(worker_id)
                if not running:
                    if not self._workers and any(queues.values()):
                        raise BackendUnhealthyError(
                            self.name, "no workers available"
                        )
                    continue
                timeout = _supervisor_wait_timeout(ctx, policy, running)
                for conn in _mp_wait(list(running), timeout):
                    handle = running.get(conn)
                    if handle is None:
                        continue  # worker was killed earlier this round
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        lose_worker(handle, "worker died (pipe EOF)", kill=True)
                        continue
                    kind = msg[0]
                    if kind == "beat":
                        if msg[1] == handle.task_id:
                            handle.last_heard = time.monotonic()
                    elif kind == "result":
                        # Proactive result-segment announcement: recorded
                        # before the first chunk_done so a worker killed
                        # mid-chunk cannot leak its segment.
                        if msg[1] == handle.task_id:
                            self._note_result_announce(handle, msg[2])
                            handle.last_heard = time.monotonic()
                    elif msg[1] != handle.task_id:
                        continue  # reply for a superseded dispatch
                    elif kind == "chunk_done":
                        finish(handle, msg)
                    elif kind == "chunk_oom":
                        _k, _tid, label, nbytes, limit, in_use = msg
                        task = handle.task
                        release(handle)
                        split_task(
                            task, MemoryLimitError(label, nbytes, limit, in_use)
                        )
                    elif kind == "chunk_error":
                        task = handle.task
                        release(handle)
                        retry_task(
                            task,
                            f"worker error: {str(msg[2]).splitlines()[0]}",
                        )
                if policy.chunk_timeout is not None:
                    now = time.monotonic()
                    for handle in list(running.values()):
                        if now - handle.last_heard > policy.chunk_timeout:
                            lose_worker(
                                handle,
                                f"worker hung (silent for "
                                f"{now - handle.last_heard:.2f}s)",
                                kill=True,
                            )

            out = hierarchical_merge(
                [(shard.rows, block) for shard, block in zip(shards, blocks)],
                job.dim,
                job.cols,
                ctx=ctx,
                report=report,
            )
            if report is not None:
                report.reduce_seconds += stats["reduce"]

            if collector is not None:
                if stats["hits"]:
                    collector.metrics.counter("parallel.plan_cache.hits").inc(
                        stats["hits"]
                    )
                if stats["misses"]:
                    collector.metrics.counter(
                        "parallel.plan_cache.misses"
                    ).inc(stats["misses"])
            if report is not None:
                report.plan_cache_hits += stats["hits"]
                report.plan_cache_misses += stats["misses"]
                report.plan_build_seconds += stats["build"]
            return out
        except BaseException:
            # Workers may be mid-chunk, wedged, or have unread replies in
            # their pipes; reset the pool so this backend (or its
            # successor after a fallback) starts clean.
            self._reset_workers()
            raise
        finally:
            ctx.release_bytes(partial_bytes, "parallel partials (sharded)")
            self._handoff(job)

    def _note_result_announce(self, handle: _WorkerHandle, name: str) -> None:
        """Record a worker's result-segment name from its announcement.

        Workers announce their (worker-owned) result segment as soon as
        it is created or regrown — *before* computing the chunk — so the
        parent's :meth:`_retire_worker` unlink path covers a worker
        killed mid-first-chunk (previously the name was only learned
        from the first ``chunk_done`` reply, leaking the segment when a
        cancellation or hang kill landed earlier). A regrow makes the
        previous attachment stale; drop it here, exactly as
        :meth:`_attach_result` would.
        """
        if handle.result_name and handle.result_name != name:
            old = self._attached_results.pop(handle.result_name, None)
            if old is not None:
                try:
                    old.close()
                except Exception:
                    pass
        handle.result_name = name

    def _attach_result(
        self, handle: _WorkerHandle, name: str, n_rows: int, cols: int
    ) -> np.ndarray:
        shm = self._attached_results.get(name)
        if shm is None:
            spec = _shm.ShmArraySpec(name, (1,), "float64")
            shm, _view = _shm.attach_shared_array(
                spec, untrack=self._untrack_attach
            )
            if handle.result_name and handle.result_name != name:
                # The worker grew (and unlinked) its old buffer; drop our
                # stale attachment.
                old = self._attached_results.pop(handle.result_name, None)
                if old is not None:
                    try:
                        old.close()
                    except Exception:
                        pass
            self._attached_results[name] = shm
        handle.result_name = name
        return np.ndarray((n_rows, cols), dtype=np.float64, buffer=shm.buf)


BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def make_backend(
    name: str,
    n_workers: Optional[int] = None,
    *,
    run_token: Optional[str] = None,
) -> Backend:
    """Instantiate a backend by name (``serial`` / ``thread`` / ``process``).

    ``run_token`` namespaces the process backend's shared-memory
    segments (usually the creating :class:`ExecContext`'s token);
    serial/thread backends create no segments and ignore it.
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
