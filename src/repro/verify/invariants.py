"""Run-level invariant checks: the accounting must balance after every case.

The differential checks in :mod:`repro.verify.oracles` compare *values*;
the checks here compare *bookkeeping*. After a case's kernels have run:

* the case's :class:`~repro.runtime.budget.MemoryBudget` must have drained
  back to zero — a positive ``in_use`` means some kernel requested bytes
  it never released (exactly the class of leak that made retry-after-OOM
  logic see a budget that never frees);
* the thread's trace span stack must be balanced and the collector's
  recorded spans internally consistent (no dangling parents, no negative
  durations);
* re-running the parallel kernel on the same context must hit the plan
  cache — a miss on the second run means the cache key or the plan
  staleness stamp regressed;
* in the closed-form regime (all-distinct indices, per-non-zero
  memoization) the instrumented :class:`~repro.core.stats.KernelStats`
  flop and intermediate-byte tallies must equal the
  :mod:`repro.perfmodel` predictions *exactly* — both are derived from
  the same lattice combinatorics, so any gap is a counting bug on one
  side.

:func:`check_budget_preflight` is a standalone canary for the
request-before-allocate contract in the level-table hoist: it watches the
process's actual traced allocations (``tracemalloc``) while a budgeted
kernel is refused, and fails if the refused bytes were materialized
before the budget said no.
"""

from __future__ import annotations

import math
import tracemalloc
from typing import List

import numpy as np

from ..core.engine import lattice_ttmc
from ..core.stats import KernelStats
from ..data.synthetic import random_iou_pattern
from ..obs import open_span_depth
from ..parallel.executor import ParallelRunReport, parallel_s3ttmc
from ..perfmodel import kernel_flops_for_layout
from ..runtime.budget import MemoryBudget, MemoryLimitError
from ..runtime.context import ExecContext
from ..symmetry.combinatorics import sym_storage_size
from .generators import GeneratedWorkload
from .oracles import CheckResult

__all__ = ["run_case_invariants", "check_budget_preflight"]


def _entry_size(intermediate: str, level: int, rank: int) -> int:
    if intermediate == "compact":
        return sym_storage_size(level, rank)
    if intermediate == "full":
        return rank**level
    return rank  # cp


def run_case_invariants(gen: GeneratedWorkload, ctx: ExecContext) -> List[CheckResult]:
    """Post-case accounting checks for one workload on its context."""
    spec = gen.spec.spec
    x, u = gen.tensor, gen.factor
    order, rank = gen.spec.order, gen.spec.rank
    unnz = x.unnz
    results: List[CheckResult] = []

    # Budget drained back to zero.
    try:
        if ctx.budget is not None:
            ctx.budget.assert_drained()
        results.append(CheckResult(spec, "budget-drained", "invariant", True))
    except RuntimeError as e:
        results.append(CheckResult(spec, "budget-drained", "invariant", False, str(e)))

    # Span stack balanced on this thread.
    depth = open_span_depth()
    results.append(
        CheckResult(
            spec,
            "span-stack-balanced",
            "invariant",
            depth == 0,
            "" if depth == 0 else f"{depth} span(s) still open after the case",
        )
    )

    # Collector-recorded spans internally consistent.
    if ctx.collector is not None:
        problems = ctx.collector.check_consistency()
        results.append(
            CheckResult(
                spec,
                "trace-consistent",
                "invariant",
                not problems,
                "; ".join(problems[:4]),
            )
        )

    # Plan cache: a repeated parallel run on the same context must be
    # all hits — a miss means the cache key or staleness stamp regressed.
    if unnz > 0:
        try:
            parallel_s3ttmc(x, u, 2, backend="serial", ctx=ctx)
            second = ParallelRunReport()
            parallel_s3ttmc(x, u, 2, backend="serial", report=second, ctx=ctx)
            ok = second.plan_cache_misses == 0 and second.plan_cache_hits > 0
            results.append(
                CheckResult(
                    spec,
                    "plan-cache-hits",
                    "invariant",
                    ok,
                    ""
                    if ok
                    else (
                        f"second run: {second.plan_cache_hits} hits, "
                        f"{second.plan_cache_misses} misses (expected all hits)"
                    ),
                )
            )
        except Exception as e:
            results.append(
                CheckResult(
                    spec,
                    "plan-cache-hits",
                    "invariant",
                    False,
                    f"raised {type(e).__name__}: {e}",
                )
            )

    # Closed-form flop model (Eq. 9 regime: all-distinct rows, per-non-zero
    # memoization — no cross-non-zero sharing, so counts are exact).
    if unnz > 0 and gen.all_distinct:
        for intermediate in ("compact", "full", "cp"):
            name = f"flops-match-model:{intermediate}"
            try:
                stats = KernelStats()
                lattice_ttmc(
                    x.indices,
                    x.values,
                    gen.spec.dim,
                    u,
                    intermediate=intermediate,
                    memoize="nonzero",
                    stats=stats,
                    ctx=ctx,
                )
                want = kernel_flops_for_layout(intermediate, order, rank, unnz)
                ok = stats.kernel_flops == want
                detail = (
                    ""
                    if ok
                    else f"measured {stats.kernel_flops} != model {want}"
                )
                if ok:
                    want_bytes = max(
                        math.comb(order, level)
                        * unnz
                        * _entry_size(intermediate, level, rank)
                        * 8
                        for level in range(2, order)
                    )
                    ok = stats.intermediate_bytes == want_bytes
                    detail = (
                        ""
                        if ok
                        else (
                            f"intermediate_bytes {stats.intermediate_bytes} "
                            f"!= model {want_bytes}"
                        )
                    )
                results.append(CheckResult(spec, name, "invariant", ok, detail))
            except Exception as e:
                results.append(
                    CheckResult(
                        spec,
                        name,
                        "invariant",
                        False,
                        f"raised {type(e).__name__}: {e}",
                    )
                )
    return results


def check_budget_preflight() -> CheckResult:
    """Canary for the request-before-allocate contract in the level hoist.

    Builds a workload whose hoisted gather tables (``(dim + M_prev) ·
    S_{l,R} · 8`` bytes, dominated by ``dim``) far exceed a small budget,
    runs the kernel with a caller-provided ``out`` (so the output itself
    is never requested), and measures the process's *traced* peak
    allocation across the refused call. If the kernel materializes the
    tables before asking the budget, the traced peak jumps by the table
    size even though ``MemoryLimitError`` is still raised — the exact
    signature of the pre-flight-ordering bug.
    """
    spec = "order=3,dim=40000,rank=8,unnz=48,dist=uniform,seed=0"
    order, dim, rank, unnz = 3, 40000, 8, 48
    rng = np.random.default_rng(0)
    indices = random_iou_pattern(order, dim, unnz, rng)
    values = rng.standard_normal(indices.shape[0])
    factor = rng.standard_normal((dim, rank))
    cols = sym_storage_size(order - 1, rank)
    out = np.zeros((dim, cols), dtype=np.float64)  # allocated before tracing
    hoist_bytes = (dim + 3 * unnz) * cols * 8  # upper bound on the tables

    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        refused = False
        try:
            # Large block_bytes keeps the hoist path enabled, so the
            # ~11.5 MB gather tables are the allocation under test.
            lattice_ttmc(
                indices,
                values,
                dim,
                factor,
                out=out,
                block_bytes=1 << 25,
                ctx=ExecContext(budget=MemoryBudget(limit_bytes=4 * 2**20)),
            )
        except MemoryLimitError:
            refused = True
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()

    if not refused:
        return CheckResult(
            spec,
            "budget-preflight",
            "invariant",
            False,
            "kernel was not refused — budget sizing assumption broken",
        )
    limit = hoist_bytes // 2
    ok = peak < limit
    return CheckResult(
        spec,
        "budget-preflight",
        "invariant",
        ok,
        ""
        if ok
        else (
            f"traced peak {peak} bytes >= {limit} during a refused call — "
            f"gather tables were allocated before the budget pre-flight"
        ),
    )
