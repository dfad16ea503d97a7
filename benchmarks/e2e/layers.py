"""Traced run: per-layer numbers for one workload, timed from outside.

The workload runs once more with a ``TraceCollector`` on every
``ExecContext`` the harness builds, alternating with untraced runs of the
same work so that the cost of tracing itself is measured
(``obs.trace_overhead``). Then each layer's public functions are called on
the workload's own tensor and final factor: ``repro.core``,
``repro.parallel``, ``repro.runtime`` and ``repro.serve``; ``repro.decomp``
numbers come from the timers of the traced solves. Every call sits under a
harness span: one root per workload, one per solve or job (carrying its id)
and one per probe. Spans stay in memory and are written once, as JSONL that
``python -m repro.obs summarize`` reads.
"""

from __future__ import annotations

import asyncio
import dataclasses
import shutil
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

import stats
import workloads
from repro.core.plan import build_plan, content_fingerprint
from repro.core.s3ttmc import s3ttmc
from repro.core.s3ttmc_tc import times_core
from repro.decomp import hoqri
from repro.obs import Span, TraceCollector, read_trace, summarize, write_trace
from repro.parallel import ParallelRunReport, parallel_s3ttmc, shard_resident_bytes
from repro.perfmodel import kernel_flops_model
from repro.runtime import CheckpointState, ExecContext, MemoryBudget, save_checkpoint
from repro.serve import JobSpec, TenantQuota, check_admission
from workloads import MIB, DecompWorkload, Outcome, ServeWorkload

#: Timed repetitions of each warm probe (the median is reported).
REPS = 3
#: Calls per timing of the microsecond-scale probes.
BATCH = 200
#: Period of the event-loop lateness ticker.
TICK_S = 0.010


def _timed(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return stats.median(times)


def _per_call(fn, reps: int = 5) -> float:
    def batch():
        for _ in range(BATCH):
            fn()

    return _timed(batch, reps) / BATCH


def _fresh(tensors):
    """Copies with cold plan caches (plans are memoized on the object)."""
    return [
        type(t)(t.order, t.dim, t.indices.copy(), t.values.copy(), assume_canonical=True)
        for t in tensors
    ]


# ---------------------------------------------------------------------------
# Layer probes
# ---------------------------------------------------------------------------


def core_layer(root: ExecContext, tensor, factor) -> Dict[str, float]:
    collector = root.collector
    rank = factor.shape[1]
    with root.span("bench.core.build_plan"):
        start = time.perf_counter()
        build_plan(tensor.indices)
        plan_s = time.perf_counter() - start
    s3ttmc(tensor, factor, ctx=ExecContext(collector=collector))  # plan warm
    ctx = ExecContext(budget=MemoryBudget(), collector=collector)
    with root.span("bench.core.s3ttmc"):
        kernel_s = _timed(lambda: s3ttmc(tensor, factor, ctx=ctx))
    y = s3ttmc(tensor, factor, ctx=ctx)
    with root.span("bench.core.times_core"):
        tc_s = _timed(lambda: times_core(y, factor, ctx=ctx))
    compiled = ExecContext(collector=collector)
    s3ttmc(tensor, factor, kernel="compiled", ctx=compiled)  # compile, tables
    with root.span("bench.core.s3ttmc_compiled"):
        compiled_s = _timed(
            lambda: s3ttmc(tensor, factor, kernel="compiled", ctx=compiled)
        )
    gflop = kernel_flops_model("symprop", tensor.order, rank, tensor.unnz) / 1e9
    return {
        "core.s3ttmc_s": kernel_s,
        "core.s3ttmc_gflop": gflop,
        "core.s3ttmc_gflops": gflop / kernel_s,
        "core.s3ttmc_peak_mib": ctx.budget.peak / MIB,
        "core.times_core_s": tc_s,
        "core.plan_build_s": plan_s,
        "core.s3ttmc_compiled_s": compiled_s,
    }


def parallel_layer(root: ExecContext, tensor, factor, serial_s: float):
    """Cold and warm ``parallel_s3ttmc`` on a fresh process context; the
    speedup's base is the warm serial ``core.s3ttmc_s``."""
    ctx = ExecContext(
        budget=MemoryBudget(),
        collector=root.collector,
        execution="process",
        n_workers=workloads.N_WORKERS,
        sharding="owned",
    )
    reports: List[ParallelRunReport] = []
    walls: List[float] = []
    with ctx:
        for _ in range(1 + REPS):
            report = ParallelRunReport()
            with root.span("bench.parallel.s3ttmc", cold=not reports):
                start = time.perf_counter()
                parallel_s3ttmc(tensor, factor, ctx=ctx, report=report)
                walls.append(time.perf_counter() - start)
            reports.append(report)
    cold, warm = reports[0], reports[1:]
    typical = sorted(warm, key=lambda r: r.elapsed)[len(warm) // 2]
    warm_s = stats.median(walls[1:])
    return {
        "parallel.s3ttmc_s": warm_s,
        "parallel.cold_call_s": walls[0],
        "parallel.speedup": serial_s / warm_s,
        "parallel.critical_path_s": typical.critical_path_seconds(),
        "parallel.utilization": typical.utilization(),
        "parallel.reduce_s": typical.reduce_seconds,
        "parallel.plan_build_s": cold.plan_build_seconds,
        "parallel.overhead_s": typical.elapsed - typical.critical_path_seconds(),
        "parallel.retries": sum(r.retries for r in reports),
        "parallel.respawns": sum(r.respawns for r in reports),
        "parallel.fallbacks": sum(r.fallbacks for r in reports),
        "parallel.shard_mib": shard_resident_bytes(
            tensor.unnz, tensor.order, typical.ranges, sharding="owned"
        )
        / MIB,
    }


def runtime_layer(root: ExecContext, result, workdir: Path, saves_per_job: float):
    """``save_checkpoint`` of ``result``'s state, and ``ExecContext.derive``."""
    state = CheckpointState(
        algorithm=result.algorithm.partition("[")[0],
        iteration=result.iterations - 1,
        factor=result.factor,
        prev_objective=result.trace.objective[-1],
        norm_x_squared=result.norm_x_squared,
        converged=result.converged,
        objective=list(result.trace.objective),
        relative_error=list(result.trace.relative_error),
        core_norm_squared=list(result.trace.core_norm_squared),
        core_data=result.core.data,
        core_nrows=result.core.nrows,
    )
    directory = workdir / "checkpoint"
    ctx = ExecContext(collector=root.collector)
    try:
        with root.span("bench.runtime.save_checkpoint"):
            save_s = _timed(lambda: save_checkpoint(directory, state, ctx=ctx), 5)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    base = ExecContext()
    with root.span("bench.runtime.derive"):
        derive_s = _per_call(base.derive)
    return {
        "runtime.checkpoint_save_s": save_s,
        "runtime.checkpoint_saves_per_job": saves_per_job,
        "runtime.ctx_derive_s": derive_s,
    }


def decomp_layer(results) -> Dict[str, float]:
    """Per-iteration phase times pooled over ``(wall seconds, result)``
    pairs; unattributed time is wall time no phase accounts for."""
    iterations = sum(r.iterations for _w, r in results)

    def per_iteration(*phases: str) -> float:
        total = sum(r.timer.totals.get(p, 0.0) for _w, r in results for p in phases)
        return total / iterations

    unattributed = [w - r.timer.total for w, r in results]
    return {
        "decomp.s3ttmc_s": per_iteration("s3ttmc"),
        "decomp.factor_update_s": per_iteration("svd", "qr"),
        "decomp.core_s": per_iteration("core", "times_core"),
        "decomp.objective_s": per_iteration("objective"),
        "decomp.init_s": sum(r.timer.totals.get("init", 0.0) for _w, r in results)
        / len(results),
        "decomp.unattributed_s": stats.median(unattributed),
        "decomp.unattributed_share": sum(unattributed) / sum(w for w, _r in results),
        "decomp.iterations": iterations / len(results),
    }


# ---------------------------------------------------------------------------
# Serve: spans, the lateness ticker, per-layer numbers
# ---------------------------------------------------------------------------


def _ticker(lags: List[float]):
    async def tick(stop: asyncio.Event) -> None:
        while not stop.is_set():
            start = time.perf_counter()
            await asyncio.sleep(TICK_S)
            lags.append(time.perf_counter() - start - TICK_S)

    return tick


def record_job_spans(collector: TraceCollector, parent: int, run) -> None:
    """One span tree per job, rebuilt from the client's clock readings and
    the service's ``JobStatus`` timestamps (children recorded first)."""
    offset = time.perf_counter() - time.time()
    for s in run.samples:
        job_id = collector.allocate_id()
        attrs = {"job_id": s.job_id, "tenant": s.spec.tenant, "kind": s.spec.kind}
        children = [("bench.serve.submit", s.submit_start, s.submit_end)]
        st = s.status
        if st is not None and st.started_at is not None:
            started, finished = st.started_at + offset, st.finished_at + offset
            children += [
                ("bench.serve.queue_wait", st.submitted_at + offset, started),
                ("bench.serve.run", started, finished),
            ]
        for name, start, end in children:
            collector.record_span(
                Span(name, collector.allocate_id(), job_id, start, end, attrs=dict(attrs))
            )
        outcome = "failed" if s.error is not None else "miss"
        if st is not None and st.cache_hit:
            outcome = "hit"
        collector.record_span(
            Span("bench.serve.job", job_id, parent, s.submit_start, s.end,
                 attrs={**attrs, "outcome": outcome})
        )  # fmt: skip


def serve_layer(run, lags: List[float], spec: JobSpec, tensor) -> Dict[str, float]:
    done = run.completed
    executed = [
        s.status for s in done if s.status is not None and s.status.started_at is not None
    ]
    submit = [s.submit_end - s.submit_start for s in done]
    queue = [st.started_at - st.submitted_at for st in executed]
    running = [st.finished_at - st.started_at for st in executed]
    ratios = [
        st.predicted_peak_bytes / st.measured_peak_bytes
        for st in executed
        if st.measured_peak_bytes > 0
    ]
    submitted = max(1, run.counters["submitted"])
    quota = TenantQuota()
    return {
        "serve.submit_p50_s": stats.median(submit),
        "serve.submit_tail_s": stats.tail(submit)[0],
        "serve.queue_wait_p50_s": stats.median(queue),
        "serve.queue_wait_tail_s": stats.tail(queue)[0],
        "serve.run_p50_s": stats.median(running),
        "serve.run_tail_s": stats.tail(running)[0],
        "serve.cache_hit_share": run.counters["cache_hits"] / submitted,
        "serve.coalesced_share": run.counters["coalesced"] / submitted,
        "serve.admission_s": _per_call(lambda: check_admission(spec, quota)),
        "serve.fingerprint_s": _timed(lambda: content_fingerprint(tensor), 5),
        "serve.loop_lag_tail_s": stats.tail(lags)[0],
        "serve.predicted_over_measured_min": min(ratios),
        "serve.predicted_over_measured_p50": stats.median(ratios),
        "serve.budgets_undrained": run.hygiene["budgets_undrained"],
        "serve.live_segments": run.hygiene["live_segments"],
    }


async def _traced_serve(cfg, stream, seconds, root: ExecContext, warmup=0.0):
    lags: List[float] = []
    with root.span("bench.serve.load") as load:
        run = await workloads.serve_once(
            cfg, stream, seconds, warmup=warmup, during=_ticker(lags)
        )
    record_job_spans(root.collector, load.span_id, run)
    return run, lags


# ---------------------------------------------------------------------------
# The traced run of each kind of workload
# ---------------------------------------------------------------------------


def _traced_decomp(cfg: DecompWorkload, tensor, seconds, root, tally, workdir):
    _, reference, _ = workloads.timed_solve(cfg, tensor)
    tally.record(True, "reference solve")
    plain: List[float] = []
    traced = []
    loop_start = time.perf_counter()
    while True:
        wall, result, _ = workloads.timed_solve(cfg, tensor)
        plain.append(wall)
        with root.span("bench.solve", solve_id=len(traced)):
            wall, traced_result, _ = workloads.timed_solve(
                cfg, tensor, collector=root.collector
            )
        traced.append((wall, traced_result))
        tally.record(True, "solve pair")
        for r in (result, traced_result):
            workloads.check_solve(tally, r, reference, f"traced-run solve {len(plain)}")
        elapsed = time.perf_counter() - loop_start
        pair = stats.median(plain) + stats.median([w for w, _r in traced])
        if len(plain) >= 2 and elapsed + pair > seconds:
            break

    factor = reference.factor
    metrics = decomp_layer(traced)
    metrics["obs.trace_overhead"] = (
        stats.median([w for w, _r in traced]) / stats.median(plain) - 1.0
    )
    metrics.update(core_layer(root, tensor, factor))
    metrics.update(parallel_layer(root, tensor, factor, metrics["core.s3ttmc_s"]))
    saves = reference.timer.counts.get("checkpoint", 0)
    metrics.update(runtime_layer(root, reference, workdir, saves))

    # The service on this workload's kernel: two distinct s3ttmc specs, each
    # submitted by two tenants at once (one runs, one rides along).
    specs = [
        JobSpec(kind="s3ttmc", tensor=tensor, factor=f)
        for f in (factor, np.ascontiguousarray(factor[:, ::-1]))
    ]
    # Each submission gets its own spec object: the service mutates it.
    stream = iter([dataclasses.replace(specs[k % 2]) for k in range(4)])
    probe = workloads.ServeWorkload(clients=2)
    run, lags = asyncio.run(_traced_serve(probe, stream, float("inf"), root))
    workloads.check_serve(tally, run, min_replays=2)
    metrics.update(serve_layer(run, lags, specs[0], tensor))
    return metrics


def _traced_serve_workload(cfg: ServeWorkload, tensors, seed, seconds, root, tally, workdir):
    half = seconds / 2
    warmup = workloads.SERVE_WARMUP_S
    plain = asyncio.run(
        workloads.serve_once(
            cfg, workloads.job_stream(cfg, _fresh(tensors), seed), half, warmup=warmup
        )
    )
    run, lags = asyncio.run(
        _traced_serve(
            cfg, workloads.job_stream(cfg, _fresh(tensors), seed), half, root, warmup
        )
    )
    for r in (plain, run):
        workloads.check_serve(tally, r)

    decomps = [
        (st.finished_at - st.started_at, s.result)
        for s in run.completed
        if (st := s.status) is not None
        and st.started_at is not None
        and s.spec.kind != "s3ttmc"
    ]
    metrics = decomp_layer(decomps)
    metrics["obs.trace_overhead"] = (
        stats.median([s.latency for s in run.completed])
        / stats.median([s.latency for s in plain.completed])
        - 1.0
    )
    # Layer probes on the largest served tensor, at a direct HOQRI factor.
    tensor = max(tensors, key=lambda t: (t.order, t.unnz))
    with root.span("bench.solve", solve_id="probe"):
        result = hoqri(
            tensor, 4, max_iters=cfg.iterations, tol=0.0, seed=workloads.SOLVE_SEED,
            ctx=ExecContext(collector=root.collector),
        )  # fmt: skip
    metrics.update(core_layer(root, tensor, result.factor))
    metrics.update(
        parallel_layer(root, tensor, result.factor, metrics["core.s3ttmc_s"])
    )
    saves = stats.median([r.timer.counts.get("checkpoint", 0) for _w, r in decomps])
    metrics.update(runtime_layer(root, result, workdir, saves))
    spec = JobSpec(kind="hoqri", tensor=tensor, rank=4, max_iters=cfg.iterations, seed=1)
    metrics.update(serve_layer(run, lags, spec, tensor))
    return metrics


def run_traced(
    name: str,
    cfg,
    tensors: Sequence,
    seed: int,
    *,
    seconds: float,
    workdir: Path,
    tally: stats.Tally,
    trace_path: Path,
) -> Outcome:
    collector = TraceCollector()
    root = ExecContext(collector=collector)
    with root.span("bench.workload", workload=name, seed=seed):
        if isinstance(cfg, ServeWorkload):
            metrics = _traced_serve_workload(
                cfg, tensors, seed, seconds, root, tally, workdir
            )
        else:
            metrics = _traced_decomp(cfg, tensors[0], seconds, root, tally, workdir)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    write_trace(collector, trace_path)
    summary = summarize(read_trace(trace_path))
    tally.record(
        summary.span_count == len(collector.spans),
        f"{trace_path} reads back {summary.span_count} of {len(collector.spans)} spans",
    )
    return Outcome(
        metrics={k: float(v) for k, v in metrics.items()},
        details={"trace": str(trace_path), "spans": len(collector.spans)},
    )
