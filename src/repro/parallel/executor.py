"""Plan-aware parallel S³TTMc over non-zero partitions.

Functionally identical to the serial kernel: the non-zero list is split
into balanced contiguous chunks, each chunk's sub-multiset lattice is
evaluated independently, and the partials are reduced by summation
(S³TTMc is a sum over non-zeros, so any partition is valid).

What makes the layer *plan-aware* (the paper's CSS-tree amortization
story, Figure 6):

* **Chunk-plan cache.** Each chunk's lattice depends only on the sparsity
  pattern and the partition, never on factor values — so it is built once
  per ``(tensor pattern, partition, memoize)`` and reused across every
  kernel call and every HOOI/HOQRI iteration (:func:`get_chunk_plans`,
  held on the execution context's
  :class:`~repro.runtime.context.PlanCache`, weakly keyed by the tensor;
  the default context's cache gives ctx-less call sites process-wide
  reuse). Cache behaviour is observable via the
  ``parallel.plan_cache.hits`` / ``parallel.plan_cache.misses`` counters
  and per-chunk ``parallel.plan_build`` spans.
* **Pluggable execution backends** (:mod:`repro.parallel.backends`):
  ``"serial"`` (in-line loop), ``"thread"`` (persistent pool; NumPy
  releases the GIL on the heavy vector ops) and ``"process"``
  (persistent worker processes with shared-memory operands — true
  multi-core execution in pure NumPy).
* **Owned shards with compact row-blocks.** Each worker owns one
  chunk's non-zeros (:mod:`repro.parallel.sharding`) and accumulates
  into a *compact row-block*: a chunk touches only the output rows whose
  index values appear in its non-zeros, so its partial is
  ``(rows_c, S)`` instead of a private full ``(I, S)`` copy. Total
  reduction memory is ``I·S + Σ_c rows_c·S ≈ I·S`` rather than
  ``p·I·S``, and the partials merge through the deterministic pairwise
  tree (:func:`~repro.parallel.sharding.hierarchical_merge`). All partial
  buffers are declared against the job context's
  :class:`~repro.runtime.budget.MemoryBudget`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.engine import KERNELS, lattice_ttmc
from ..core.plan import TTMcPlan, build_plan
from ..core.s3ttmc import SymmetricInput, _as_ucoo
from ..formats.partial_sym import PartiallySymmetricTensor
from ..runtime.context import ExecContext, default_context, resolve_context
from ..runtime.faults import BackendUnhealthyError
from ..symmetry.combinatorics import sym_storage_size
from .sharding import chunk_row_block, partition_ranges, shard_resident_bytes

__all__ = [
    "ChunkPlan",
    "ParallelJob",
    "ParallelRunReport",
    "chunk_row_block",
    "get_chunk_plans",
    "parallel_s3ttmc",
    "partition_ranges",
    "measure_chunk_costs",
]


@dataclass(frozen=True)
class ChunkPlan:
    """Pattern-only execution state for one non-zero chunk.

    ``rows`` are the sorted distinct output rows the chunk's top-level
    scatter touches (exactly the distinct index values of its non-zeros);
    ``row_map`` maps global row ids to ``0..len(rows)-1`` (``-1``
    elsewhere) and is handed to the engine as ``out_row_map``. ``plan``
    is the chunk's lattice plan.
    """

    start: int
    stop: int
    rows: np.ndarray
    row_map: np.ndarray
    plan: TTMcPlan
    build_seconds: float = 0.0

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]


@dataclass
class ParallelRunReport:
    """Outcome of one parallel kernel run.

    All fields default so callers can construct an empty report without
    dummy values (``ParallelRunReport()``); the executor fills it in.

    The resilience fields count recovery actions taken during the run:
    ``retries`` (chunk re-executions after a crash / corrupt partial /
    worker error), ``respawns`` (process-backend workers replaced after a
    death or hang), ``oom_splits`` (chunk bisections after a memory-limit
    refusal), ``corrupt_partials`` (checksum mismatches detected),
    ``nonfinite_partials`` (partials rejected by the finiteness
    sentinel), and
    ``fallbacks`` / ``fallback_chain`` (backend degradations, e.g.
    ``["thread"]`` when a process run fell back to threads). ``backend``
    reports the backend that produced the returned result.

    ``worker_busy`` maps each worker (thread name, or ``w<id>`` for
    process workers) to its summed chunk seconds; from it derive
    :meth:`busy_seconds`, :meth:`critical_path_seconds` and
    :meth:`utilization` — the same rollup ``python -m repro.obs report``
    computes from a trace, available here without tracing.
    """

    n_workers: int = 0
    ranges: List[Tuple[int, int]] = field(default_factory=list)
    chunk_seconds: List[float] = field(default_factory=list)
    elapsed: float = 0.0
    backend: str = ""
    shard_reingests: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_build_seconds: float = 0.0
    reduce_seconds: float = 0.0
    retries: int = 0
    respawns: int = 0
    oom_splits: int = 0
    corrupt_partials: int = 0
    nonfinite_partials: int = 0
    fallbacks: int = 0
    fallback_chain: List[str] = field(default_factory=list)
    worker_busy: Dict[str, float] = field(default_factory=dict)

    def busy_seconds(self) -> float:
        """Total worker-busy time (sum over all chunk executions)."""
        return sum(self.worker_busy.values()) or sum(self.chunk_seconds)

    def critical_path_seconds(self) -> float:
        """Busy time of the most-loaded worker — the lower bound the
        run's elapsed time cannot beat however the reduce is overlapped."""
        if self.worker_busy:
            return max(self.worker_busy.values())
        return max(self.chunk_seconds, default=0.0)

    def utilization(self) -> float:
        """Busy fraction of the ``n_workers × elapsed`` capacity
        (0 when elapsed was never filled in)."""
        capacity = self.n_workers * self.elapsed
        return self.busy_seconds() / capacity if capacity > 0 else 0.0


@dataclass(frozen=True)
class ParallelJob:
    """Everything a backend needs to run one parallel S³TTMc call."""

    indices: np.ndarray
    values: np.ndarray
    dim: int
    factor: np.ndarray
    ranges: Tuple[Tuple[int, int], ...]
    memoize: str
    cols: int
    tensor: object  # SparseSymmetricTensor — plan-cache anchor
    #: The run's (snapshotted) ExecContext: budget/collector travel with
    #: the job into worker threads and (as a budget spec) processes.
    ctx: Optional[ExecContext] = None
    #: Engine mode per chunk: ``"compiled"`` or ``"generic"`` (the spec
    #: ships to process workers, which compile locally and cache tables
    #: in their worker-side plan caches).
    kernel: str = "compiled"

    @property
    def order(self) -> int:
        return self.indices.shape[1]

    @property
    def rank(self) -> int:
        return self.factor.shape[1]


def _count_cache(
    hits: int,
    misses: int,
    report: Optional[ParallelRunReport],
    ctx: ExecContext,
) -> None:
    collector = ctx.collector
    if collector is not None:
        if hits:
            collector.metrics.counter("parallel.plan_cache.hits").inc(hits)
        if misses:
            collector.metrics.counter("parallel.plan_cache.misses").inc(misses)
    if report is not None:
        report.plan_cache_hits += hits
        report.plan_cache_misses += misses


def get_chunk_plans(
    tensor,
    ranges: Sequence[Tuple[int, int]],
    memoize: str = "global",
    *,
    report: Optional[ParallelRunReport] = None,
    ctx: Optional[ExecContext] = None,
) -> List[ChunkPlan]:
    """Per-chunk plans for ``tensor`` under ``ranges``, cached per context.

    The cache lives on the :class:`~repro.runtime.context.ExecContext`'s
    :class:`~repro.runtime.context.PlanCache` (weakly keyed by the tensor;
    the default context's cache is process-persistent, so ctx-less call
    sites keep their cross-call reuse), keyed by ``(partition, memoize)``
    — the pattern of a :class:`~repro.formats.ucoo.SparseSymmetricTensor`
    is immutable by convention, so each chunk's lattice is built exactly
    once per cache and reused across all kernel calls and decomposition
    iterations.
    """
    ctx = resolve_context(ctx)
    cache = ctx.plans.chunk_plans(tensor)
    key = (tuple(ranges), memoize)
    plans = cache.get(key)
    if plans is not None:
        _count_cache(len(plans), 0, report, ctx)
        return plans

    indices = tensor.indices
    dim = tensor.dim
    out: List[ChunkPlan] = []
    for slot, (start, stop) in enumerate(ranges):
        rows, row_map = chunk_row_block(indices[start:stop], dim)
        with ctx.span(
            "parallel.plan_build", chunk=slot, nz_start=start, nz_stop=stop
        ):
            tick = time.perf_counter()
            plan = build_plan(indices[start:stop], memoize, ctx=ctx)
            build_seconds = time.perf_counter() - tick
        out.append(
            ChunkPlan(
                start=start,
                stop=stop,
                rows=rows,
                row_map=row_map,
                plan=plan,
                build_seconds=build_seconds,
            )
        )
    cache[key] = out
    _count_cache(0, len(out), report, ctx)
    if report is not None:
        report.plan_build_seconds += sum(cp.build_seconds for cp in out)
    return out


def parallel_s3ttmc(
    tensor: SymmetricInput,
    factor: np.ndarray,
    n_workers: Optional[int] = None,
    *,
    backend: Union[str, "Backend", None] = None,
    memoize: str = "global",
    kernel: str = "compiled",
    report: Optional[ParallelRunReport] = None,
    ctx: Optional[ExecContext] = None,
) -> PartiallySymmetricTensor:
    """S³TTMc over owned, cost-balanced non-zero shards on a pluggable backend.

    Each worker owns one contiguous shard of the non-zero list; shard
    partials merge through the deterministic hierarchical reduction, so
    every backend returns bitwise-identical output.

    Parameters
    ----------
    tensor, factor:
        As :func:`repro.core.s3ttmc.s3ttmc`.
    n_workers:
        Worker count (shard count equals it). Defaults to the context's
        ``n_workers``, then the backend's worker count when a live
        backend instance is used, else ``os.cpu_count()``.
    backend:
        ``"serial"``, ``"thread"``, ``"process"`` or a live
        :class:`~repro.parallel.backends.Backend` instance. ``None``
        (the default) consults the context: its adopted backend is
        reused; otherwise a backend matching ``ctx.execution`` is created
        and, unless ``ctx`` is the process default, adopted (kept alive
        until ``ctx.close()``). String backends are created and closed per
        call.
    memoize:
        Lattice memoization scope, forwarded to the chunk plans.
    kernel:
        Per-chunk engine mode: ``"compiled"`` (the default: fused
        exec-generated kernels; process workers compile locally from the
        shipped spec and reuse worker-side table caches) or
        ``"generic"`` (the bitwise reference engine).
    report:
        Optional :class:`ParallelRunReport` to fill.
    ctx:
        Optional :class:`~repro.runtime.context.ExecContext`. Its budget
        and collector travel with the job to workers (threads enter the
        context's scope; processes mirror the budget limit), and its plan
        cache holds the chunk plans. ``None`` resolves to
        :func:`~repro.runtime.context.current_context`.
    """
    from .backends import Backend, make_backend  # local: avoid import cycle

    # A bad engine name is the caller's error, not a worker fault: reject
    # it before any backend spawns, retries or degrades over it.
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel mode {kernel!r}; expected one of {KERNELS}")
    ctx = resolve_context(ctx)
    ctx.check_health("parallel.s3ttmc")
    ucoo = _as_ucoo(tensor)
    factor = np.asarray(factor, dtype=np.float64)
    if factor.ndim != 2 or factor.shape[0] != ucoo.dim:
        raise ValueError(f"factor must be ({ucoo.dim}, R), got {factor.shape}")
    rank = factor.shape[1]
    cols = sym_storage_size(ucoo.order - 1, rank)
    if n_workers is None:
        n_workers = ctx.n_workers

    owns_backend = False
    if backend is None:
        if ctx.backend is not None:
            backend = ctx.backend
        else:
            name = ctx.execution if ctx.execution in ("thread", "process") else "thread"
            backend = make_backend(name, n_workers, run_token=ctx.run_token)
            if ctx is default_context():
                owns_backend = True  # never pin a pool on the process default
            else:
                ctx.adopt_backend(backend)
    elif isinstance(backend, str):
        backend = make_backend(backend, n_workers, run_token=ctx.run_token)
        owns_backend = True
    elif not isinstance(backend, Backend):
        raise TypeError(f"backend must be a name or Backend, got {type(backend)!r}")
    if n_workers is None:
        n_workers = backend.n_workers

    ranges = partition_ranges(ucoo, rank, max(1, n_workers), ctx)
    job = ParallelJob(
        indices=ucoo.indices,
        values=ucoo.values,
        dim=ucoo.dim,
        factor=factor,
        ranges=ranges,
        memoize=memoize,
        cols=cols,
        tensor=ucoo,
        ctx=ctx,
        kernel=kernel,
    )
    if report is not None:
        report.n_workers = n_workers
        report.ranges = list(ranges)
        report.backend = backend.name
        report.chunk_seconds = [0.0] * len(ranges)

    # Per-worker resident tensor bytes (the widest shard) — the gauge
    # the sharded-memory acceptance criterion reads.
    collector = ctx.collector
    if collector is not None:
        collector.metrics.gauge("parallel.shard_bytes").set(
            shard_resident_bytes(ucoo.unnz, ucoo.order, ranges)
        )

    policy = ctx.effective_fallback()
    tick = time.perf_counter()
    try:
        while True:
            try:
                with ctx.span(
                    "parallel.s3ttmc",
                    backend=backend.name,
                    n_workers=n_workers,
                    n_chunks=len(ranges),
                ):
                    data = backend.execute(job, report)
                break
            except BackendUnhealthyError as exc:
                # Degrade to the next-weaker backend in the policy chain
                # (process → thread → serial by default). The replacement
                # is adopted onto the context, so subsequent calls — e.g.
                # the remaining iterations of a decomposition — keep
                # using it instead of re-hitting the unhealthy backend.
                weaker = policy.degrade_to(backend.name)
                if weaker is None:
                    raise
                if collector is not None:
                    ctx.event(
                        "parallel.fallback",
                        from_backend=backend.name,
                        to_backend=weaker,
                        reason=exc.reason,
                    )
                    collector.metrics.counter("parallel.fallbacks").inc()
                if report is not None:
                    report.fallbacks += 1
                    report.fallback_chain.append(weaker)
                if ctx.backend is backend:
                    ctx.close()
                else:
                    backend.close()
                backend = make_backend(weaker, n_workers, run_token=ctx.run_token)
                if not owns_backend and ctx is not default_context():
                    ctx.adopt_backend(backend)
                else:
                    owns_backend = True
        elapsed = time.perf_counter() - tick
        if collector is not None:
            collector.metrics.counter(f"parallel.runs.{backend.name}").inc()
    finally:
        if owns_backend:
            backend.close()
    if report is not None:
        report.elapsed = elapsed
        report.backend = backend.name
    return PartiallySymmetricTensor(ucoo.dim, ucoo.order - 1, rank, data)


def measure_chunk_costs(
    tensor: SymmetricInput,
    factor: np.ndarray,
    n_chunks: int,
    *,
    memoize: str = "global",
    repeats: int = 1,
    ctx: Optional[ExecContext] = None,
) -> List[float]:
    """Serial per-chunk *numeric* wall times for ``n_chunks`` balanced ranges.

    These are the inputs to the Figure-6 scaling simulator: measured on one
    core, scheduled analytically onto ``p`` workers. Chunk plans are built
    (and cached) up front, so the measured cost is the per-iteration numeric
    work — matching the paper's amortized-CSS-tree accounting.
    """
    ctx = resolve_context(ctx)
    ucoo = _as_ucoo(tensor)
    factor = np.asarray(factor, dtype=np.float64)
    ranges = partition_ranges(ucoo, factor.shape[1], n_chunks, ctx)
    plans = get_chunk_plans(ucoo, ranges, memoize, ctx=ctx)
    out = []
    for cp in plans:
        best = np.inf
        for _ in range(max(1, repeats)):
            tick = time.perf_counter()
            lattice_ttmc(
                ucoo.indices[cp.start : cp.stop],
                ucoo.values[cp.start : cp.stop],
                ucoo.dim,
                factor,
                intermediate="compact",
                memoize=memoize,
                plan=cp.plan,
                ctx=ctx,
            )
            best = min(best, time.perf_counter() - tick)
        out.append(float(best))
    return out
