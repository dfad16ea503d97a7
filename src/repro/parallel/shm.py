"""Shared-memory plumbing and worker loop for the process backend.

The process backend ships operands to persistent worker processes via
``multiprocessing.shared_memory`` instead of pickling them per call:

* **indices / values** — shipped as disjoint per-worker *shard*
  segments holding only each worker's contiguous non-zero slice, written
  once per (tensor, partition) and mapped read-only by their owner
  (chunk ranges arrive in shard-local coordinates);
* **factor** — one buffer rewritten in place each kernel call (it is the
  only operand that changes across HOOI/HOQRI iterations; same name ⇒
  workers keep their mapping);
* **results** — each worker owns one growable output buffer into which
  it writes the compact row-block partial of its *current* chunk; only
  the segment name and row count cross the pipe.

Work arrives **one chunk at a time** (the supervision unit in
:class:`~repro.parallel.backends.ProcessBackend`): the parent dispatches
a chunk, the worker evaluates it into its result buffer, replies, and
receives the next chunk. While a chunk is running a daemon heartbeat
thread sends periodic ``("beat", task_id)`` messages over the same pipe
so the parent can tell a long chunk from a hung worker. Each chunk
message may carry an injected fault (see :mod:`repro.runtime.faults`)
which the worker *executes* but never decides: arming lives in the
parent's chunk supervisor so fault plans replay deterministically. The
worker applies ``crash`` and ``hang`` itself; every other kind is
applied by :func:`compute_partial`, the helper that also produces the
serial backend's partials.

Workers cache their chunk plans across calls keyed on
``(tensor generation, chunk range, memoize)`` — the process-side half of
the executor's plan cache, which is what makes iteration 2..n of a
decomposition pay zero symbolic cost on every core. A respawned worker
starts with an empty cache and rewarms it on demand (visible as plan
cache misses).

All processes share the parent's resource tracker (see
:mod:`repro.parallel.child`), so attaching a segment leaves its tracker
registration alone (see :func:`attach_shared_array`).

Segment hygiene: every segment created in a process is recorded in a
module registry and swept at interpreter exit, so even abnormal
teardown paths (a worker dying mid-job, a backend never closed) cannot
leak ``/dev/shm`` segments from the parent; segments owned by a
*crashed* worker are unlinked by the parent supervisor via
:func:`unlink_segment_by_name`.

The registry is guarded by a lock and every entry carries the *run
token* of the context/backend that created it, and namespaced segments
embed that token (plus the creating pid) in their kernel name —
``rp<token>-<pid>-<seq>``. Two process backends running concurrently in
one parent therefore can never collide on a name or sweep each other's
segments: :meth:`~repro.parallel.backends.ProcessBackend.close` sweeps
only its own token via :func:`sweep_run_segments`.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.shared_memory import SharedMemory
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.engine import lattice_ttmc
from ..runtime.budget import MemoryLimitError
from ..runtime.faults import InjectedFault

__all__ = [
    "ShmArraySpec",
    "create_shared_array",
    "attach_shared_array",
    "close_and_unlink",
    "unlink_segment_by_name",
    "sweep_run_segments",
    "live_segments",
    "tracker_guard",
    "compute_partial",
    "worker_main",
]


# ---------------------------------------------------------------------------
# Fork safety
# ---------------------------------------------------------------------------

_TRACKER_LOCK = threading.RLock()
_TRACKER_LOCK_PID = os.getpid()


def tracker_guard() -> threading.RLock:
    """Lock serializing resource-tracker traffic against worker forks.

    ``SharedMemory`` create/attach/unlink all message the shared
    ``multiprocessing.resource_tracker`` under the tracker's internal
    lock. Forking a worker while another thread sits inside that
    critical section clones a *held* tracker lock into the child, which
    then deadlocks at its first segment attach — observed with two
    process backends driven from concurrent threads (the serve pool, or
    any multi-tenant caller). Every tracker-touching path in this module
    runs under this lock, and :class:`~repro.parallel.child.Child` holds
    it across ``Process.start()``, so a fork can never overlap a
    registration. The same ordering covers :data:`_REGISTRY_LOCK`: it is
    only ever taken under this lock, so a fork cannot clone it held
    either. Fork children inherit the parent's instance in an arbitrary
    state; the pid check hands them a fresh lock instead.
    """
    global _TRACKER_LOCK, _TRACKER_LOCK_PID
    if _TRACKER_LOCK_PID != os.getpid():
        _TRACKER_LOCK = threading.RLock()
        _TRACKER_LOCK_PID = os.getpid()
    return _TRACKER_LOCK


# ---------------------------------------------------------------------------
# Live-segment registry (leak protection)
# ---------------------------------------------------------------------------

_REGISTRY_LOCK = threading.Lock()
# name -> run token of the creating context/backend ("" when the segment
# was created outside any run namespace). Iterating the dict yields the
# names, so ``set(_LIVE_SEGMENTS)`` keeps working for leak checks.
_LIVE_SEGMENTS: Dict[str, str] = {}
_NAME_COUNTER = itertools.count()


def _register_segment(name: str, run_token: str = "") -> None:
    with tracker_guard(), _REGISTRY_LOCK:
        _LIVE_SEGMENTS[name] = run_token


def _unregister_segment(name: str) -> None:
    with tracker_guard(), _REGISTRY_LOCK:
        _LIVE_SEGMENTS.pop(name, None)


def _sweep_segments() -> None:
    """Unlink every segment this process created but never released.

    Registered via :func:`atexit` — the last line of defence when a
    backend is abandoned without ``close()`` (or an exception skipped
    teardown). Normal paths unlink eagerly; this sweep then finds an
    empty registry and does nothing.
    """
    with tracker_guard(), _REGISTRY_LOCK:
        leaked = list(_LIVE_SEGMENTS)
        _LIVE_SEGMENTS.clear()
    for name in leaked:
        unlink_segment_by_name(name)


def sweep_run_segments(run_token: str) -> list:
    """Unlink every live segment registered under ``run_token``.

    The per-run analogue of the atexit sweep: a backend closing (or a
    service retiring a job's context) reclaims exactly its own segments
    and can never touch a concurrent run's. Returns the names swept so
    callers can report what a crashed path left behind.
    """
    if not run_token:
        return []
    with tracker_guard(), _REGISTRY_LOCK:
        names = [n for n, tok in _LIVE_SEGMENTS.items() if tok == run_token]
    for name in names:
        unlink_segment_by_name(name)
    return names


def live_segments(run_token: Optional[str] = None) -> set:
    """Names of live segments — all of them, or one run's namespace."""
    with tracker_guard(), _REGISTRY_LOCK:
        if run_token is None:
            return set(_LIVE_SEGMENTS)
        return {n for n, tok in _LIVE_SEGMENTS.items() if tok == run_token}


def _new_segment(nbytes: int, run_token: str = "") -> SharedMemory:
    """Create a registered segment, namespaced under ``run_token``.

    With a token the kernel name is ``rp<token>-<pid>-<seq>`` — unique
    across concurrent runs (token), across parent/worker processes
    (pid), and across segments in one process (seq) — and short enough
    for the 31-char POSIX limit on macOS. Without a token the kernel
    assigns the name, as before.
    """
    with tracker_guard():
        if not run_token:
            shm = SharedMemory(create=True, size=max(1, nbytes))
            _register_segment(shm.name)
            return shm
        for _ in range(128):
            name = f"rp{run_token}-{os.getpid():x}-{next(_NAME_COUNTER):x}"
            try:
                shm = SharedMemory(name=name, create=True, size=max(1, nbytes))
            except FileExistsError:  # stale segment from a dead run: skip name
                continue
            _register_segment(shm.name, run_token)
            return shm
    raise RuntimeError(
        f"could not allocate a shm name under run token {run_token!r}"
    )


atexit.register(_sweep_segments)


def unlink_segment_by_name(name: str) -> None:
    """Best-effort unlink of a segment known only by name.

    Used by the parent to reclaim the result buffer of a worker that
    died without running its own teardown, and by the atexit sweep.
    Missing segments are fine (someone else already cleaned up).
    """
    with tracker_guard():
        try:
            shm = SharedMemory(name=name)
        except FileNotFoundError:
            _unregister_segment(name)
            return
        except Exception:
            return
        try:
            shm.close()
        except Exception:
            pass
        try:
            # unlink() also unregisters with this process's resource tracker,
            # balancing the registration the attach above just made.
            shm.unlink()
        except Exception:
            pass
        _unregister_segment(name)


@dataclass(frozen=True)
class ShmArraySpec:
    """Picklable handle to a NumPy array living in a shared segment."""

    name: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        n = np.dtype(self.dtype).itemsize
        for extent in self.shape:
            n *= int(extent)
        return n


def create_shared_array(
    array: np.ndarray, *, name_hint: str = "", run_token: str = ""
) -> Tuple[SharedMemory, np.ndarray, ShmArraySpec]:
    """Copy ``array`` into a fresh shared segment.

    Returns ``(shm, view, spec)``; the creator owns the segment and must
    :func:`close_and_unlink` it when done (the atexit sweep covers
    abnormal exits). ``name_hint`` is only a debug aid. With a
    ``run_token`` the segment name is namespaced under that run (see
    :func:`_new_segment`); otherwise the kernel assigns it.
    """
    array = np.ascontiguousarray(array)
    shm = _new_segment(array.nbytes, run_token)
    try:
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
    except BaseException:
        close_and_unlink(shm)
        raise
    return shm, view, ShmArraySpec(shm.name, tuple(array.shape), str(array.dtype))


def attach_shared_array(
    spec: ShmArraySpec, *, writeable: bool = False
) -> Tuple[SharedMemory, np.ndarray]:
    """Map an existing segment; the attachment never owns the segment.

    The attach registers the name with the resource tracker, and that is
    left alone: every child shares the parent's tracker, where
    registration is set-deduplicated. Unregistering here would cancel
    the *creator's* registration, and its later unlink would then fail
    inside the tracker.
    """
    with tracker_guard():
        shm = SharedMemory(name=spec.name)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    if not writeable:
        view.flags.writeable = False
    return shm, view


def close_and_unlink(shm: Optional[SharedMemory]) -> None:
    """Best-effort teardown (idempotent; segments may already be gone)."""
    if shm is None:
        return
    with tracker_guard():
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass
        _unregister_segment(shm.name)


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


class _Heartbeat:
    """Daemon thread beating over the worker's pipe while a chunk runs.

    The parent's hang detector measures *silence*; beats keep a
    long-but-healthy chunk alive past any deadline. An injected hang
    suppresses beats (a wedged process doesn't announce itself).
    """

    def __init__(self, conn: Connection, send_lock: threading.Lock) -> None:
        self._conn = conn
        self._send_lock = send_lock
        self._state = threading.Lock()
        self._stop = threading.Event()
        self._task_id: Optional[int] = None
        self._interval = 0.5
        self._suppressed = False
        self._thread: Optional[threading.Thread] = None

    def start_task(self, task_id: int, interval: float) -> None:
        with self._state:
            self._task_id = task_id
            self._interval = max(0.01, float(interval))
            self._suppressed = False
        if self._thread is None and interval > 0:
            self._thread = threading.Thread(
                target=self._loop, name="s3ttmc-heartbeat", daemon=True
            )
            self._thread.start()

    def end_task(self) -> None:
        with self._state:
            self._task_id = None

    def suppress(self, flag: bool) -> None:
        with self._state:
            self._suppressed = flag

    def close(self) -> None:
        self._stop.set()

    def _loop(self) -> None:
        while True:
            with self._state:
                interval = self._interval
            if self._stop.wait(interval):
                return
            with self._state:
                task_id = None if self._suppressed else self._task_id
            if task_id is None:
                continue
            try:
                with self._send_lock:
                    self._conn.send(("beat", task_id))
            except Exception:
                return  # pipe gone: parent died or is closing us


class _WorkerState:
    """Everything one worker process keeps alive between calls."""

    def __init__(self, run_token: str = "") -> None:
        self.run_token = run_token
        self.tensor_gen = -1
        self.shard_id = -1  # >= 0 when this worker owns a tensor shard
        self.dim = 0
        self.segments: Dict[str, SharedMemory] = {}
        self.indices: Optional[np.ndarray] = None
        self.values: Optional[np.ndarray] = None
        self.factor: Optional[np.ndarray] = None
        self.factor_name = ""
        # (tensor_gen, start, stop, memoize) -> (plan, rows, row_map)
        self.plan_cache: Dict[tuple, tuple] = {}
        # Worker-side PlanCache: compiled-kernel gather tables persist
        # across chunk calls (keyed by plan stamp, so a new tensor
        # generation — new pattern — can never hit stale tables).
        from ..runtime.context import PlanCache

        self.plans = PlanCache()
        self.result: Optional[SharedMemory] = None

    def attach(self, key: str, spec: ShmArraySpec) -> np.ndarray:
        old = self.segments.pop(key, None)
        if old is not None:
            try:
                old.close()
            except Exception:
                pass
        shm, view = attach_shared_array(spec)
        self.segments[key] = shm
        return view

    def ensure_result(self, nbytes: int) -> SharedMemory:
        if self.result is not None and self.result.size >= nbytes:
            return self.result
        close_and_unlink(self.result)
        self.result = _new_segment(nbytes, self.run_token)
        return self.result

    def teardown(self) -> None:
        for shm in self.segments.values():
            try:
                shm.close()
            except Exception:
                pass
        self.segments.clear()
        close_and_unlink(self.result)
        self.result = None


def compute_partial(
    indices: np.ndarray,
    values: np.ndarray,
    dim: int,
    factor: np.ndarray,
    out: np.ndarray,
    row_map: np.ndarray,
    plan,
    *,
    memoize: str,
    kernel: str,
    ctx,
    fault=None,
) -> float:
    """Evaluate one chunk into the zeroed ``out``; return its checksum.

    The one producer of chunk partials, used in-process by the serial
    backend and in the workers by :func:`_run_chunk`.
    ``fault`` is ``None`` or an armed fault's ``(kind, param)`` payload
    (see :mod:`repro.runtime.faults`). Every kind is applied here except
    the two whose effect depends on where the chunk runs, ``crash`` and
    ``hang``:

    * ``slow`` — sleep ``param`` seconds (pure latency: a process worker
      keeps heartbeating, so it never trips hang detection, but it burns
      the run's wall-clock deadline);
    * ``oom`` — raise a :class:`~repro.runtime.budget.MemoryLimitError`
      as a too-large chunk would;
    * ``error`` — raise a generic injected exception;
    * ``nan`` — poison the partial *before* its checksum is taken (the
      non-finite sum rides the checksum to the finiteness sentinel);
    * ``corrupt`` — perturb the partial *after* its checksum was taken
      (caught by partial verification instead).
    """
    kind = fault[0] if fault is not None else None
    if kind == "slow":
        time.sleep(float(fault[1]))
    elif kind == "oom":
        raise MemoryLimitError("injected chunk oom", 0, 0, 0)
    elif kind == "error":
        raise InjectedFault("injected chunk error")
    lattice_ttmc(
        indices,
        values,
        dim,
        factor,
        intermediate="compact",
        memoize=memoize,
        kernel=kernel,
        out=out,
        out_row_map=row_map,
        plan=plan,
        ctx=ctx,
    )
    if kind == "nan" and out.size:
        out.flat[0] = np.nan
    checksum = float(out.sum())
    if kind == "corrupt" and out.size:
        out.flat[0] += float(fault[1])
    return checksum


def _run_chunk(
    state: _WorkerState,
    start: int,
    stop: int,
    memoize: str,
    cols: int,
    budget_spec,
    fault,
    heartbeat: _Heartbeat,
    kernel: str = "compiled",
    notify_result=None,
):
    """Evaluate one chunk into the worker's result buffer.

    ``budget_spec`` — ``(limit_bytes, parent_in_use)`` — mirrors the
    parent's :class:`~repro.runtime.budget.MemoryBudget` into this
    process: a local budget preloaded with the parent's current usage
    governs the kernel call, so transient allocations here are
    limit-checked exactly as they would be in-process. The worker's peak
    is reported back for the parent to fold in.

    ``fault`` is ``None`` or ``(kind, param)`` shipped by the parent's
    armed :class:`~repro.runtime.faults.FaultInjector`. Only the
    process-specific kinds are handled here — ``crash`` is
    ``os._exit(3)`` (pipe EOF at the parent) and ``hang`` sleeps
    ``param`` seconds with heartbeats suppressed; the rest are applied
    by :func:`compute_partial`.

    ``notify_result`` (when given) is called with the result segment's
    name as soon as the buffer exists — before any numeric work — so the
    parent can reclaim the segment even if this worker is killed
    mid-chunk.

    Returns ``(result_name, n_rows, checksum, build_s, numeric_s,
    plan_cache_hit, peak_bytes)``.
    """
    from ..core.plan import build_plan
    from ..runtime.budget import MemoryBudget
    from ..runtime.context import ExecContext
    from .executor import chunk_row_block

    assert state.indices is not None and state.values is not None
    assert state.factor is not None

    kind = fault[0] if fault is not None else None
    if kind == "crash":
        os._exit(3)
    elif kind == "hang":
        heartbeat.suppress(True)
        time.sleep(float(fault[1]))
        heartbeat.suppress(False)

    budget = None
    if budget_spec is not None:
        limit_bytes, base_in_use = budget_spec
        budget = MemoryBudget(limit_bytes=limit_bytes)
        budget.in_use = int(base_in_use)
        budget.peak = int(base_in_use)

    key = (state.tensor_gen, start, stop, memoize)
    cached = state.plan_cache.get(key)
    hit = cached is not None
    build_seconds = 0.0
    if cached is None:
        tick = time.perf_counter()
        rows, row_map = chunk_row_block(state.indices[start:stop], state.dim)
        plan = build_plan(state.indices[start:stop], memoize)
        build_seconds = time.perf_counter() - tick
        cached = (plan, rows, row_map)
        state.plan_cache[key] = cached
    plan, rows, row_map = cached
    n_rows = rows.shape[0]

    shm = state.ensure_result(n_rows * cols * 8)
    if notify_result is not None:
        notify_result(shm.name)
    block = np.ndarray((n_rows, cols), dtype=np.float64, buffer=shm.buf)
    block[...] = 0.0
    # The kernel is driven under an explicit per-call ExecContext carrying
    # the mirrored budget, never the worker's active context.
    worker_ctx = ExecContext(budget=budget, plans=state.plans)
    tick = time.perf_counter()
    checksum = compute_partial(
        state.indices[start:stop],
        state.values[start:stop],
        state.dim,
        state.factor,
        block,
        row_map,
        plan,
        memoize=memoize,
        kernel=kernel,
        ctx=worker_ctx,
        fault=fault,
    )
    numeric_seconds = time.perf_counter() - tick
    peak = budget.peak if budget is not None else 0
    return shm.name, n_rows, checksum, build_seconds, numeric_seconds, hit, peak


def worker_main(conn: Connection, worker_id: int, run_token: str = "") -> None:
    """Persistent worker loop of a :class:`~repro.parallel.child.Child`
    (so the child prologue has run), fed over its duplex pipe.

    Messages (tuples, first element is the op):

    ``("shard", gen, shard_id, idx_spec, val_spec, dim)``
        Attach this worker's *own* disjoint tensor shard read-only: the
        segments hold only the worker's contiguous non-zero slice, so
        subsequent chunk ranges arrive in shard-local coordinates. The
        parent bumps ``gen`` whenever the shard layout changes, so
        plan-cache keys never alias across layouts (old plans stay keyed
        under their generation).
    ``("factor", spec)``
        (Re-)attach the factor buffer. The parent rewrites the segment in
        place between calls; a new name arrives only when the shape grew.
    ``("chunk", task_id, start, stop, memoize, cols, budget_spec, fault,
    heartbeat_interval, kernel)``
        Evaluate one chunk under the mirrored budget — with the generic
        or compiled engine per the shipped kernel spec — heartbeating
        every ``heartbeat_interval`` seconds. The worker announces its
        result segment with ``("result", task_id, name)`` as soon as the
        buffer exists (so the parent can reclaim it if the worker is
        killed mid-chunk), then replies ``("chunk_done", task_id,
        result_name, n_rows, checksum, build_s, numeric_s, hit, peak)``,
        ``("chunk_oom", task_id, label, nbytes, limit, in_use)`` when the
        mirrored budget refuses an allocation, or ``("chunk_error",
        task_id, text)`` on any other failure.
    EOF on the pipe (the parent closed its end, or died)
        Tear down segments and exit.

    Replies are serialized through one lock shared with the heartbeat
    thread, so beats never interleave mid-message.
    """
    state = _WorkerState(run_token)
    send_lock = threading.Lock()
    heartbeat = _Heartbeat(conn, send_lock)

    def reply(msg: tuple) -> None:
        with send_lock:
            conn.send(msg)

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg[0]
            try:
                if op == "shard":
                    _op, gen, shard_id, idx_spec, val_spec, dim = msg
                    state.tensor_gen = gen
                    state.shard_id = shard_id
                    state.dim = dim
                    state.indices = state.attach("indices", idx_spec)
                    state.values = state.attach("values", val_spec)
                elif op == "factor":
                    spec = msg[1]
                    state.factor = state.attach("factor", spec)
                    state.factor_name = spec.name
                elif op == "chunk":
                    (
                        _op,
                        task_id,
                        start,
                        stop,
                        memoize,
                        cols,
                        budget_spec,
                        fault,
                        hb_interval,
                        kernel,
                    ) = msg
                    heartbeat.start_task(task_id, hb_interval)
                    try:
                        result = _run_chunk(
                            state,
                            start,
                            stop,
                            memoize,
                            cols,
                            budget_spec,
                            fault,
                            heartbeat,
                            kernel,
                            notify_result=lambda name, _tid=task_id: reply(
                                ("result", _tid, name)
                            ),
                        )
                    except MemoryLimitError as oom:
                        reply(
                            (
                                "chunk_oom",
                                task_id,
                                oom.label,
                                oom.nbytes,
                                oom.limit,
                                oom.in_use,
                            )
                        )
                    else:
                        reply(("chunk_done", task_id, *result))
                    finally:
                        heartbeat.end_task()
                else:  # pragma: no cover - protocol misuse
                    reply(("error", f"unknown op {op!r}"))
            except Exception as exc:  # surface worker failures to the parent
                import traceback

                task_id = msg[1] if op == "chunk" and len(msg) > 1 else None
                text = f"{exc!r}\n{traceback.format_exc()}"
                if task_id is not None:
                    reply(("chunk_error", task_id, text))
                else:
                    reply(("error", text))
    finally:
        heartbeat.close()
        state.teardown()
