"""Sampling profiler: wall-time attribution to open span stacks.

The span tracer records what the code *declared* it was doing; this
module adds a statistical view of where wall-clock time actually went,
by periodically snapshotting every thread's open-span stack (see
:func:`repro.obs.trace.snapshot_open_stacks`) from a background thread.
Each sample folds into a ``thread;span;span;...`` stack key, so the
aggregate is directly renderable as collapsed-stack ("folded") text —
the format speedscope, FlameGraph and friends consume.

Design constraints:

1. **Low overhead.** One sample costs a ``threading.enumerate()``, one
   list copy per thread with open spans, and a dict update — a few
   microseconds. At the default 5 ms interval the profiled run pays well
   under 1 % (the CI ``perf-smoke`` job demonstrates <5 % on the tiny
   bench via the regression comparator).
2. **Deterministic under test.** The stack source is injectable, and
   :meth:`SamplingProfiler.sample_once` exposes a single sampling step,
   so tests drive the profiler with fabricated stacks and assert
   byte-identical folded output.
3. **Run ownership.** An :class:`~repro.runtime.context.ExecContext`
   constructed with ``profiler=`` starts it on activation and stops (and
   flushes) it in ``close()`` — profiler lifetime matches the run, like
   the budget and collector. The ``REPRO_PROFILE=path`` environment hook
   (:func:`profiler_from_env`, honoured by the bench harness and
   ``python -m repro.verify``) covers unmodified scripts.

Usage::

    from repro.obs.profile import SamplingProfiler

    prof = SamplingProfiler(interval=0.005)
    prof.start()
    ...                      # traced work on any threads
    prof.stop()
    print(prof.folded())     # "MainThread;hooi.iteration;phase:s3ttmc 37"
"""

from __future__ import annotations

import os
import threading
import warnings
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from .trace import snapshot_open_stacks

__all__ = [
    "PROFILE_ENV_VAR",
    "SamplingProfiler",
    "profiler_from_env",
]

#: Environment variable naming a file to write folded-stack output to.
PROFILE_ENV_VAR = "REPRO_PROFILE"

#: Default sampling interval: 5 ms ≈ 200 Hz, low overhead but enough
#: resolution for the millisecond-scale lattice levels.
DEFAULT_INTERVAL = 0.005


class SamplingProfiler:
    """Background-thread wall-time sampler over open span stacks.

    Parameters
    ----------
    interval:
        Seconds between samples (default 5 ms).
    path:
        Optional output file; :meth:`stop` appends the folded-stack text
        there (appending lets several measurements accumulate in one
        file — collapsed-stack consumers sum duplicate keys).
    stacks:
        Injectable stack source returning ``{thread: [span names]}``
        (defaults to the live tracer registry).

    Thread-safe: ``start``/``stop`` are idempotent, and ``sample_once``
    may be called concurrently with the background sampler (tests drive
    it directly instead of starting the thread).
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        *,
        path: Union[str, Path, None] = None,
        stacks: Callable[[], Dict[str, List[str]]] = snapshot_open_stacks,
    ) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval = float(interval)
        self.path = Path(path) if path is not None else None
        self._stacks = stacks
        self._lock = threading.Lock()
        self._stop_evt = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.samples: Dict[Tuple[str, ...], int] = {}
        self.n_samples = 0
        self.idle_samples = 0

    # -- sampling ----------------------------------------------------------

    def sample_once(self) -> None:
        """Take one sample: fold every thread's current open-span stack."""
        stacks = self._stacks()
        with self._lock:
            self.n_samples += 1
            if not stacks:
                self.idle_samples += 1
                return
            for thread in sorted(stacks):
                key = (thread, *stacks[thread])
                self.samples[key] = self.samples.get(key, 0) + 1

    def _run(self) -> None:
        while not self._stop_evt.wait(self.interval):
            self.sample_once()

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        """``True`` while the background sampler thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Start the background sampler (idempotent)."""
        if self.running:
            return self
        self._stop_evt.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling and flush to ``path`` if one was given (idempotent).

        A flush failure warns instead of raising — profiling must never
        take down the run it observed.
        """
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop_evt.set()
            thread.join()
        if self.path is not None and thread is not None:
            try:
                self.write(self.path)
            except OSError as exc:
                warnings.warn(
                    f"could not write profile to {self.path}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- output ------------------------------------------------------------

    def folded(self) -> str:
        """Collapsed-stack text: one ``thread;span;... count`` per line.

        Lines are sorted by key, so identical sample multisets produce
        byte-identical output regardless of sampling order (the
        determinism the export tests pin down).
        """
        with self._lock:
            items = sorted(self.samples.items())
        return "\n".join(";".join(key) + f" {count}" for key, count in items)

    def write(self, path: Union[str, Path], *, append: bool = True) -> Path:
        """Write the folded-stack text to ``path`` (append by default)."""
        path = Path(path)
        text = self.folded()
        mode = "a" if append else "w"
        with path.open(mode, encoding="utf-8") as fh:
            if text:
                fh.write(text + "\n")
        return path


def profiler_from_env(environ=os.environ) -> Optional[SamplingProfiler]:
    """A :class:`SamplingProfiler` targeting ``$REPRO_PROFILE``, or ``None``.

    ``REPRO_PROFILE=path[:interval_ms]`` — e.g. ``prof.folded`` or
    ``prof.folded:2`` for 2 ms sampling. The caller owns start/stop
    (usually by handing the profiler to an ``ExecContext``).
    """
    spec = environ.get(PROFILE_ENV_VAR)
    if not spec:
        return None
    path, interval = spec, DEFAULT_INTERVAL
    if ":" in spec:
        head, _, tail = spec.rpartition(":")
        try:
            interval = float(tail) / 1000.0
        except ValueError:
            pass
        else:
            path = head
    if interval <= 0:
        interval = DEFAULT_INTERVAL
    return SamplingProfiler(interval, path=path)
