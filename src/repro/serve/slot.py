"""Scheduler slots: each runs its jobs in one persistent job process.

A :class:`PoolSlot` is the service-side handle of one scheduler slot. At
:meth:`PoolSlot.start` it starts a job process running
:func:`slot_main`, and every attempt of every job the slot takes runs
there, so ``pool_size`` slots compute on ``pool_size`` cores instead of
sharing one interpreter lock.

The two sides speak over one duplex pipe:

* service → job process: ``("job", seq, SlotJob)``, ``("cancel", seq,
  reason)`` and ``("stop",)``;
* job process → service: ``("done", seq, SlotReply)`` per job and
  ``("stopped", live_segments)`` once its backend is closed.

In the job process a listener thread reads the pipe while the main
thread runs the job: a ``cancel`` trips that job's
:class:`~repro.runtime.health.CancelToken`, so the sweep stops between
iterations exactly as an in-process cancel would, and a preempted
decomposition's trip still carries its
:class:`~repro.runtime.checkpoint.CheckpointState` back for a bit-for-bit
resume. The job process interns tensors in its own
:class:`~repro.serve.cache.TensorInterner` and keeps its own
:class:`~repro.runtime.context.PlanCache` (and, for a ``process``
service, its own backend), all warm across the slot's jobs.

A job process that dies fails only the job it was running, with a
:class:`~repro.runtime.faults.BackendUnhealthyError` naming the slot and
the exit code; the slot starts a fresh process before its next job.
"""

from __future__ import annotations

import asyncio
import dataclasses
import pickle
import queue
import threading
import traceback
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ..core.s3ttmc import s3ttmc
from ..decomp import hooi, hoqri
from ..formats.ucoo import SparseSymmetricTensor
from ..parallel import shm as _shm
from ..parallel.backends import make_backend
from ..parallel.child import STOP_TIMEOUT_S, Child
from ..parallel.executor import parallel_s3ttmc
from ..runtime.budget import MemoryBudget
from ..runtime.checkpoint import CheckpointState
from ..runtime.context import ExecContext
from ..runtime.faults import BackendUnhealthyError
from ..runtime.health import CancelToken
from .cache import TensorInterner
from .jobs import JobSpec

__all__ = ["PoolSlot", "SlotJob", "SlotReply", "slot_main"]


@dataclass
class SlotJob:
    """One attempt of one job, as it crosses the pipe.

    The tensor travels as its arrays plus its content fingerprint (the
    job process interns on it), never as the service's object, which
    may hold memos built for another process.
    """

    spec: JobSpec  # with ``tensor=None``
    fingerprint: str
    tensor: tuple  # (order, dim, indices, values), canonical
    memory_bytes: Optional[int]
    deadline_seconds: Optional[float]
    resume: Optional[CheckpointState]

    @classmethod
    def of(cls, spec: JobSpec, fingerprint: str, **limits) -> "SlotJob":
        t = spec.tensor
        return cls(
            spec=dataclasses.replace(spec, tensor=None),
            fingerprint=fingerprint,
            tensor=(t.order, t.dim, t.indices, t.values),
            **limits,
        )


@dataclass
class SlotReply:
    """A finished attempt: the result or the exception it raised, and
    what its :class:`~repro.runtime.budget.MemoryBudget` saw.

    Pickling drops an exception's traceback, so a failed attempt also
    carries the job process's formatted one; :meth:`PoolSlot.run` hands
    it on as the exception's ``__cause__``.
    """

    ok: bool
    value: Any
    peak_bytes: int
    undrained: bool
    traceback: Optional[str] = None


# ---------------------------------------------------------------------------
# Service side
# ---------------------------------------------------------------------------


class PoolSlot:
    """One scheduler slot and its job process."""

    def __init__(self, slot_id: int, execution: str, n_workers: Optional[int]):
        self.slot_id = slot_id
        self.execution = execution
        self.n_workers = n_workers
        self.task: Optional[asyncio.Task] = None
        #: Id of the job the slot is running, else ``None``.
        self.job_id: Optional[str] = None
        self.child: Optional[Child] = None
        self.seq = 0
        #: Live shared-memory segments the job process reported at stop.
        self.live_segments = 0

    @property
    def name(self) -> str:
        return f"serve-slot-{self.slot_id}"

    @property
    def pid(self) -> Optional[int]:
        """The job process's pid while it runs, else ``None``."""
        child = self.child
        return child.pid if child is not None and child.alive else None

    def start(self) -> None:
        """Start the job process (on the event-loop thread)."""
        self.child = Child(
            slot_main, (self.execution, self.n_workers), self.name,
            segments=self.execution == "process",
        )

    async def run(self, job: SlotJob) -> SlotReply:
        """Run one attempt in the job process and return its reply."""
        if self.child is None or not self.child.alive:
            if self.child is not None:
                self._reap()  # died while idle: nothing was lost
            self.start()
        self.seq += 1
        try:
            self.child.conn.send(("job", self.seq, job))
            _kind, _seq, reply = await self._receive()
        except (EOFError, OSError):
            code = self._reap()
            raise BackendUnhealthyError(
                self.name, f"job process died with exit code {code}"
            ) from None
        if reply.traceback is not None:
            reply.value.__cause__ = RuntimeError(
                f"the job failed in {self.name}:\n{reply.traceback}"
            )
        return reply

    def interrupt(self, reason: str) -> None:
        """Trip the running job's cancel token in the job process."""
        try:
            self.child.conn.send(("cancel", self.seq, reason))
        except (AttributeError, OSError):
            pass  # no process, or it died: run() reports that

    async def stop(self) -> None:
        """Ask the job process to stop and give it :data:`STOP_TIMEOUT_S`
        to reply and exit; then :meth:`Child.stop` ends it."""
        child = self.child
        if child is None:
            return
        try:
            child.conn.send(("stop",))
            _kind, self.live_segments = await asyncio.wait_for(
                self._receive(), STOP_TIMEOUT_S
            )
            await asyncio.wait_for(_readable(child.sentinel), STOP_TIMEOUT_S)
        except (EOFError, OSError, asyncio.TimeoutError):
            pass
        self._reap(grace=0)  # the wait above was the grace

    async def _receive(self):
        child = self.child
        while not child.conn.poll():
            if not child.alive:
                raise EOFError
            await _readable(child.conn.fileno(), child.sentinel)
        return child.conn.recv()

    def _reap(self, grace: float = STOP_TIMEOUT_S) -> Optional[int]:
        """Stop the (exiting) job process; returns its exit code."""
        child, self.child = self.child, None
        code = child.stop(grace)
        child.close()
        return code


async def _readable(*fds: int) -> None:
    """Wait until any of ``fds`` is readable, without a thread."""
    loop = asyncio.get_running_loop()
    ready = loop.create_future()

    def wake() -> None:
        if not ready.done():
            ready.set_result(None)

    for fd in fds:
        loop.add_reader(fd, wake)
    try:
        await ready
    finally:
        for fd in fds:
            loop.remove_reader(fd)


# ---------------------------------------------------------------------------
# Job process
# ---------------------------------------------------------------------------


def slot_main(conn, execution: str, n_workers: Optional[int]) -> None:
    """Entry point of a job process (a :class:`~repro.parallel.child.Child`,
    so the child prologue has run): run jobs until told to stop."""
    inbox: "queue.SimpleQueue" = queue.SimpleQueue()
    tokens: Dict[int, CancelToken] = {}
    lock = threading.Lock()
    threading.Thread(
        target=_listen,
        args=(conn, inbox, tokens, lock),
        name="serve-slot-listener",
        daemon=True,
    ).start()
    base = ExecContext(execution=execution, n_workers=n_workers)
    interner = TensorInterner()
    backend = None
    try:
        while True:
            msg = inbox.get()
            if msg[0] == "stop":
                break
            _kind, seq, job = msg
            if execution != "serial" and backend is None:
                backend = make_backend(execution, n_workers)
            with lock:
                cancel = tokens[seq]
            reply = _run(job, base, interner, backend, cancel)
            with lock:
                del tokens[seq]
            try:
                conn.send(("done", seq, reply))
            except (OSError, ValueError):
                break  # the service is gone
    finally:
        if backend is not None:
            backend.close()
    try:
        conn.send(("stopped", len(_shm.live_segments())))
    except (OSError, ValueError):
        pass


def _listen(conn, inbox, tokens: Dict[int, CancelToken], lock) -> None:
    """Read the pipe for the job process: queue jobs, trip cancels."""
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            msg = ("stop",)  # the service is gone
        kind = msg[0]
        with lock:
            if kind == "job":
                tokens[msg[1]] = CancelToken()
            elif kind == "cancel":
                token = tokens.get(msg[1])  # None: that job already ended
                if token is not None:
                    token.cancel(msg[2])
                continue
            else:
                for token in tokens.values():
                    token.cancel("service shutdown")
        inbox.put(msg)
        if kind == "stop":
            return


def _run(job: SlotJob, base, interner, backend, cancel) -> SlotReply:
    """Run one attempt under its own budget, deadline and cancel token."""
    spec = job.spec
    order, dim, indices, values = job.tensor
    _fp, spec.tensor = interner.intern(
        SparseSymmetricTensor(order, dim, indices, values, assume_canonical=True),
        job.fingerprint,
    )
    budget = MemoryBudget(limit_bytes=job.memory_bytes)
    ctx = base.derive(
        budget=budget,
        seed=spec.seed,
        deadline_seconds=job.deadline_seconds,
        cancel=cancel,
    )
    if backend is not None:
        ctx.adopt_backend(backend)
    trace = None
    try:
        ok, value = True, _execute(spec, job.resume, ctx)
    except Exception as exc:
        ok, value, trace = False, _portable(exc), traceback.format_exc()
    finally:
        # The backend belongs to the job process, not the job: detach it
        # so nothing tears it down mid-service.
        ctx.release_backend()
    return SlotReply(ok, value, int(budget.peak), bool(budget.allocations), trace)


def _execute(spec: JobSpec, resume: Optional[CheckpointState], ctx: ExecContext):
    """Call the driver ``spec`` names, exactly as a direct call would."""
    if spec.kind == "s3ttmc":
        factor = np.ascontiguousarray(spec.factor, dtype=np.float64)
        if ctx.execution == "serial":
            return s3ttmc(spec.tensor, factor, ctx=ctx, **spec.driver_kwargs())
        return parallel_s3ttmc(spec.tensor, factor, ctx=ctx, **spec.driver_kwargs())
    driver = hooi if spec.kind == "hooi" else hoqri
    kwargs = spec.driver_kwargs()
    if resume is not None:
        kwargs["resume"] = resume
    return driver(spec.tensor, int(spec.rank), ctx=ctx, **kwargs)


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives the pipe, else a ``RuntimeError`` naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc
