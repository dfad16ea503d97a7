"""One lifecycle for every child process the library starts.

Process-backend workers (:func:`repro.parallel.shm.worker_main`) and
serve job processes (:func:`repro.serve.slot.slot_main`) keep their own
pipe protocols and errors, and share these rules (``docs/parallel.md``,
"Child processes"), each kept for its reason:

* The start method comes from :func:`mp_context` alone, so one variable
  moves every child to ``spawn``, the method macOS and Windows are left with.
* For a child that uses segments the parent starts the resource tracker
  first: one shared tracker deduplicates registrations, so nothing is
  reported leaked or unlinked twice. A serial service's job processes
  use none and skip its cold-start cost.
* The start holds :func:`~repro.parallel.shm.tracker_guard`: a fork
  during another thread's segment traffic would clone a held tracker
  lock into the child, which then deadlocks at its first attach.
* Each side closes the other's pipe ends it holds (a fork child, those
  it inherited), so each reads EOF once the other is gone.
* The child clears the thread-local runtime state a fork copied, then
  ignores ``SIGINT`` (blocked from its start until then): the parent
  owns shutdown, and a terminal's Ctrl-C reaches the whole group.
* Not daemonic, since a job process starts workers. At interpreter exit
  a ``Finalize`` closes the parent's pipe end: the child reads EOF,
  tears itself down and is joined.
* :meth:`Child.stop` waits for the exit, then terminates, then kills,
  each step at most :data:`STOP_TIMEOUT_S`, and leaves the pipe open:
  what the child sent before it died can still be read.
"""
from __future__ import annotations

import multiprocessing
import multiprocessing.util
import os
import signal
from multiprocessing import resource_tracker
from typing import Callable, Optional

from ..runtime.context import reset_thread_runtime_state
from . import shm as _shm

__all__ = ["Child", "START_METHOD_ENV_VAR", "STOP_TIMEOUT_S", "mp_context"]

#: Environment override for the start method of every child process the
#: library starts (``fork`` / ``spawn`` / ``forkserver``).
START_METHOD_ENV_VAR = "REPRO_START_METHOD"

#: Seconds each step of :meth:`Child.stop` waits before escalating.
STOP_TIMEOUT_S = 5.0


def mp_context():
    """The :mod:`multiprocessing` context every child starts under."""
    method = os.environ.get(START_METHOD_ENV_VAR) or (
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    return multiprocessing.get_context(method)


class Child:
    """A started child process running ``target(conn, *args)``; ``conn``
    here is the parent's end of its duplex pipe. ``segments``: the child
    or its own children use shared-memory segments."""

    def __init__(
        self, target: Callable, args: tuple, name: str, segments: bool = True
    ) -> None:
        ctx = mp_context()
        self.conn, child_conn = ctx.Pipe(duplex=True)
        multiprocessing.util.register_after_fork(self.conn, type(self.conn).close)
        self.proc = ctx.Process(
            target=_child_main, args=(target, child_conn, *args), name=name
        )
        with _shm.tracker_guard():
            if segments:
                resource_tracker.ensure_running()
            # Born with SIGINT blocked, so a Ctrl-C during a spawn child's
            # bootstrap is held until the prologue ignores it.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                self.proc.start()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        child_conn.close()
        #: ``close()`` closes the parent's pipe end; interpreter exit calls it.
        self.close = multiprocessing.util.Finalize(
            self, self.conn.close, exitpriority=10
        )

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    @property
    def sentinel(self) -> int:
        """A descriptor that turns readable when the child exits."""
        return self.proc.sentinel

    def stop(self, grace: float = STOP_TIMEOUT_S) -> Optional[int]:
        """Wait up to ``grace`` seconds for the child to exit, then
        terminate it, then kill it; join it and return its exit code
        (negative: the signal that ended it). The pipe stays open, so
        what the child sent before it exited can still be read."""
        proc = self.proc
        proc.join(grace)
        if proc.is_alive():
            proc.terminate()
            proc.join(STOP_TIMEOUT_S)
        if proc.is_alive():
            proc.kill()
            proc.join()
        return proc.exitcode


def _child_main(target: Callable, conn, *args) -> None:
    """The prologue every child runs before its ``target``."""
    reset_thread_runtime_state()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    target(conn, *args)
