"""Opt-in observability scopes for benchmark measurements.

Setting ``REPRO_TRACE=path.jsonl`` makes every measurement run under a
context carrying a :class:`repro.obs.TraceCollector` and *append* its
spans/events/metrics to that file — existing benchmark scripts gain trace
output with zero code changes (``python -m repro.obs summarize
path.jsonl`` to inspect).

Setting ``REPRO_PROFILE=path[:interval_ms]`` additionally runs every
measurement under the :class:`repro.obs.SamplingProfiler`, appending
folded span-stack samples (flamegraph input) to ``path``.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Iterator, Optional

from ..obs import SamplingProfiler, TraceCollector, profiler_from_env
from ..obs.export import write_trace
from ..runtime.context import current_context

__all__ = ["TRACE_ENV_VAR", "maybe_trace", "maybe_profile"]

#: Environment variable naming a JSONL file to append traces to.
TRACE_ENV_VAR = "REPRO_TRACE"


@contextmanager
def maybe_trace() -> Iterator[Optional[TraceCollector]]:
    """Opt-in tracing scope: active only when ``REPRO_TRACE`` is set.

    Inside, the thread's active context is a child of the current one
    carrying the collector, so calls made without ``ctx=`` trace into it
    too; contexts built inside pass the yielded collector on. On exit
    the collector's records are appended to the named JSONL file, so a
    whole benchmark run accumulates one measurement per flush. An
    unwritable path must not take down a (possibly hours-long) benchmark
    run after the measurement already succeeded, so write failures warn
    and the measurement result stands.
    """
    path = os.environ.get(TRACE_ENV_VAR)
    if not path:
        yield None
        return
    collector = TraceCollector()
    try:
        with current_context().derive(collector=collector):
            yield collector
    finally:
        try:
            write_trace(collector, path, append=True)
        except OSError as exc:
            warnings.warn(
                f"{TRACE_ENV_VAR}: could not write trace to {path!r}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )


@contextmanager
def maybe_profile() -> Iterator[Optional[SamplingProfiler]]:
    """Opt-in sampling-profiler scope: active when ``REPRO_PROFILE`` is set.

    Mirrors :func:`maybe_trace`: folded samples are *appended* to the
    configured path on exit (the profiler's own ``stop()`` flushes and
    already downgrades write failures to warnings), so each measurement
    adds its stacks to one growing flamegraph input.
    """
    profiler = profiler_from_env()
    if profiler is None:
        yield None
        return
    with profiler:
        yield profiler
