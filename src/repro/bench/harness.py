"""Experiment harness: guarded, budgeted, repeated kernel timing.

Wraps a kernel call with (a) the scaled :class:`MemoryBudget` standing in
for the paper's 256 GB node, (b) a pre-flight footprint check so hopeless
configurations fail fast as ``OOM`` instead of grinding, and (c) repeat
timing (the paper averages 10 runs; the default here is 3, configurable
via ``REPRO_BENCH_REPEATS``).

Setting ``REPRO_TRACE=path.jsonl`` makes every measurement run under a
context carrying a :class:`repro.obs.TraceCollector` and *append* its
spans/events/metrics to that file — existing benchmark scripts gain trace
output with zero code changes (``python -m repro.obs summarize
path.jsonl`` to inspect).

Setting ``REPRO_PROFILE=path[:interval_ms]`` additionally runs every
measurement under the :class:`repro.obs.SamplingProfiler`, appending
folded span-stack samples (flamegraph input) to ``path``.

Setting ``REPRO_FAULTS`` (e.g. ``"chunk:crash:slot=0"``; see
:func:`repro.runtime.faults.parse_fault_specs`) arms deterministic fault
injection on every measurement's context, so recovery overhead can be
benchmarked with unmodified scripts — see ``docs/robustness.md``.
"""

from __future__ import annotations

import os
import time
import warnings
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from ..obs import SamplingProfiler, TraceCollector, profiler_from_env
from ..obs.export import write_trace
from ..perfmodel.memory import kernel_footprint, suggest_nz_batch
from ..runtime.budget import MemoryBudget, MemoryLimitError
from ..runtime.context import ExecContext, current_context
from ..runtime.faults import faults_from_env, policy_from_env
from .records import Measurement

__all__ = [
    "DEFAULT_BUDGET_GB",
    "TRACE_ENV_VAR",
    "bench_repeats",
    "maybe_trace",
    "maybe_profile",
    "timed_measurement",
    "guarded_kernel_measurement",
]

#: Environment variable naming a JSONL file to append traces to.
TRACE_ENV_VAR = "REPRO_TRACE"

#: Scaled stand-in for the 256 GB Andes node (datasets are scaled ~100×).
DEFAULT_BUDGET_GB = float(os.environ.get("REPRO_BENCH_BUDGET_GB", "1.5"))


def bench_repeats(default: int = 3) -> int:
    """Timing repeats per cell (``REPRO_BENCH_REPEATS`` overrides)."""
    return int(os.environ.get("REPRO_BENCH_REPEATS", str(default)))


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


def timed_measurement(
    fn: Callable[[], object],
    *,
    repeats: Optional[int] = None,
    budget_gb: float = DEFAULT_BUDGET_GB,
) -> Measurement:
    """Run ``fn`` under one per-cell :class:`ExecContext` ``repeats``
    times; report the mean.

    Every cell gets its own context (fresh budget; the ``REPRO_TRACE``
    collector when tracing; the ``REPRO_FAULTS`` injector when fault
    injection is requested; the ``REPRO_POLICY`` fallback-policy
    overrides when set — e.g.
    ``REPRO_POLICY="chunk_timeout=5,max_retries=1,check_finite=0"`` to
    harden or relax the resilience knobs per run), so concurrent or
    interleaved cells can never share budget peaks, trace records, or
    fault occurrence counts. A :class:`MemoryLimitError` (at any repeat)
    renders as ``OOM``.
    """
    n = repeats if repeats is not None else bench_repeats()
    times = []
    with maybe_trace() as collector, maybe_profile():
        ctx = ExecContext(
            budget=MemoryBudget(gigabytes=budget_gb),
            collector=collector,
            faults=faults_from_env(),
            fallback=policy_from_env(),
        )
        try:
            with ctx:
                for _ in range(max(1, n)):
                    tick = time.perf_counter()
                    fn()
                    times.append(time.perf_counter() - tick)
        except MemoryLimitError as exc:
            return Measurement.out_of_memory(note=exc.label)
    return Measurement.from_seconds(sum(times) / len(times))


def guarded_kernel_measurement(
    kernel_name: str,
    fn: Callable[[], object],
    *,
    dim: int,
    order: int,
    rank: int,
    unnz: int,
    repeats: Optional[int] = None,
    budget_gb: float = DEFAULT_BUDGET_GB,
) -> Measurement:
    """Pre-flight footprint check, then :func:`timed_measurement`.

    The pre-flight uses the closed-form memory model so configurations the
    paper reports as OOM don't waste wall-clock attempting allocation.
    """
    budget_bytes = int(budget_gb * 2**30)
    footprint = kernel_footprint(
        kernel_name, dim, order, rank, unnz, nz_batch=preferred_batch(
            kernel_name, order, rank, budget_bytes
        ) or 1,
    )
    if not footprint.fits(budget_bytes):
        return Measurement.out_of_memory(note=f"{kernel_name} footprint")
    return timed_measurement(fn, repeats=repeats, budget_gb=budget_gb)


def preferred_batch(
    kernel_name: str, order: int, rank: int, budget_bytes: int
) -> Optional[int]:
    """Batch size keeping lattice intermediates within the budget share."""
    layout = "compact" if kernel_name == "symprop" else "full"
    if kernel_name in ("splatt", "hoqri-nary"):
        return None
    batch = suggest_nz_batch(order, rank, layout, budget_bytes)
    if batch == 0:
        return 1  # will OOM inside the kernel, reported faithfully
    return batch
