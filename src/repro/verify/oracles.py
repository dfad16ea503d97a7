"""The differential check matrix: every kernel path against every other.

Each check compares one kernel configuration against the dense einsum
reference or against the canonical compact serial evaluation, under one
of three modes:

``bitwise``
    The two paths perform the *same* floating-point operations in the
    same order (plan reuse, ``out=`` accumulation from zeros, identity
    ``out_row_map``, the owned-shard merge across backends) —
    results must be identical to the last bit.
``allclose``
    The paths reorder summation (different layouts, batching, block
    sizes, partitions, shard merges) — results must agree to a
    scale-aware tolerance, with the maximum ULP distance reported.
``raises``
    Error contracts: misuse (narrow ``out`` dtypes, unmapped row-map
    entries, stale plans) must fail loudly instead of corrupting output.

One column checks a decomposition step rather than a kernel:
``hooi-compact-vs-expand`` runs one HOOI iteration with each SVD path
and compares the fits and, across every spectral gap of ``Y_(1)``, the
subspaces the factors span (tied singular values leave the basis inside
a tie arbitrary).

Every result carries the workload spec string, so a failure prints as a
single rerunnable ``python -m repro.verify --case … --check …`` line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from ..baselines.css_ttmc import css_s3ttmc, css_s3ttmc_tc
from ..baselines.dense_ref import dense_s3ttmc_matrix, dense_s3ttmc_tc
from ..core.engine import lattice_ttmc
from ..core.plan import build_plan
from ..core.s3ttmc import s3ttmc
from ..core.s3ttmc_tc import s3ttmc_tc
from ..cp.mttkrp import symmetric_mttkrp
from ..decomp.hooi import hooi
from ..obs.trace import TraceCollector
from ..parallel.distributed import exchange_from_trace, plan_sharded_exchange
from ..parallel.executor import ParallelRunReport, parallel_s3ttmc
from ..runtime.context import ExecContext
from ..runtime.faults import FaultInjector, FaultSpec
from ..symmetry.combinatorics import dense_size, sym_storage_size
from .generators import GeneratedWorkload

__all__ = [
    "CheckResult",
    "run_workload_checks",
    "max_ulp_diff",
    "DENSE_LIMIT",
]

#: Skip dense-reference checks when the full tensor would exceed this
#: many entries (the reference materializes ``dim**order`` doubles).
DENSE_LIMIT = 500_000

#: Scale-relative tolerance for reordered-summation (allclose) checks.
ALLCLOSE_RTOL = 1e-9

#: Relative drop between consecutive singular values that counts as a
#: spectral gap in ``hooi-compact-vs-expand``; smaller drops are ties.
SPECTRAL_GAP_RTOL = 1e-3


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one differential or contract check."""

    spec: str  # workload spec string (seed + config)
    check: str  # e.g. "full-vs-compact", "sharded:process:owned"
    mode: str  # "bitwise" | "allclose" | "raises" | "invariant"
    ok: bool
    detail: str = ""

    @property
    def repro(self) -> str:
        """A shell line that reruns exactly this case and check."""
        return (
            f'python -m repro.verify --case "{self.spec}" --check {self.check}'
        )


def max_ulp_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest elementwise distance in units of last place.

    ``|a - b| / spacing(max(|a|, |b|))`` — 0.0 means bitwise identical,
    a few ULP means same-operation different-rounding, large values mean
    genuinely different sums.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        spacing = np.spacing(np.maximum(np.abs(a), np.abs(b)))
        ulp = np.abs(a - b) / spacing
    ulp = np.where(np.isnan(ulp), 0.0, ulp)
    return float(np.max(ulp))


def _compare(
    spec: str, check: str, mode: str, got: np.ndarray, ref: np.ndarray
) -> CheckResult:
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if got.shape != ref.shape:
        return CheckResult(
            spec, check, mode, False, f"shape {got.shape} != {ref.shape}"
        )
    if mode == "bitwise":
        if np.array_equal(got, ref):
            return CheckResult(spec, check, mode, True)
        return CheckResult(
            spec,
            check,
            mode,
            False,
            f"not bitwise: max|Δ|={float(np.max(np.abs(got - ref))):.3e}, "
            f"max ulp={max_ulp_diff(got, ref):.1f}",
        )
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    tol = ALLCLOSE_RTOL * max(1.0, scale)
    dev = float(np.max(np.abs(got - ref))) if ref.size else 0.0
    ok = dev <= tol
    detail = "" if ok else (
        f"max|Δ|={dev:.3e} > tol={tol:.3e} "
        f"(scale={scale:.3e}, max ulp={max_ulp_diff(got, ref):.1f})"
    )
    return CheckResult(spec, check, "allclose", ok, detail)


def _expect_raises(
    spec: str, check: str, fn: Callable[[], object], exc: type
) -> CheckResult:
    try:
        fn()
    except exc as e:
        return CheckResult(spec, check, "raises", True, type(e).__name__)
    except Exception as e:  # pragma: no cover - unexpected error class
        return CheckResult(
            spec,
            check,
            "raises",
            False,
            f"raised {type(e).__name__} instead of {exc.__name__}: {e}",
        )
    return CheckResult(
        spec,
        check,
        "raises",
        False,
        f"no {exc.__name__} raised — the misuse was silently accepted",
    )


def _guarded(
    spec: str, check: str, mode: str, fn: Callable[[], CheckResult]
) -> CheckResult:
    """Run a check body, converting unexpected exceptions into failures."""
    try:
        return fn()
    except Exception as e:
        return CheckResult(
            spec, check, mode, False, f"raised {type(e).__name__}: {e}"
        )


def _dense_mttkrp(tensor, factor: np.ndarray) -> np.ndarray:
    dense = tensor.to_dense()
    subs = "abcdefgh"[: tensor.order]
    spec = subs + "," + ",".join(f"{s}r" for s in subs[1:])
    return np.einsum(spec + "->" + subs[0] + "r", dense, *([factor] * (tensor.order - 1)))


def _hooi_compact_vs_expand(
    gen: GeneratedWorkload, ctx: ExecContext
) -> CheckResult:
    """One HOOI iteration per SVD path from the same start: equal fits,
    and equal projectors onto each leading subspace that ends at a gap."""
    name = "hooi-compact-vs-expand"
    x, spec = gen.tensor, gen.spec.spec
    rank = min(gen.spec.rank, x.dim)
    init = np.ascontiguousarray(gen.factor[:, :rank])
    expand, compact = (
        hooi(x, rank, max_iters=1, tol=0.0, init=init, svd_method=method, ctx=ctx)
        for method in ("expand", "compact")
    )
    scale = max(1.0, expand.norm_x_squared)
    problems = []
    for field in ("core_norm_squared", "relative_error"):
        got, ref = getattr(compact.trace, field), getattr(expand.trace, field)
        dev = float(np.max(np.abs(np.subtract(got, ref))))
        if dev > ALLCLOSE_RTOL * scale:
            problems.append(f"{field} differs by {dev:.3e}")
    full = s3ttmc(x, init, kernel="generic", ctx=ctx).to_full_unfolding()
    sigma = np.zeros(rank + 1)
    values = np.linalg.svd(full, compute_uv=False)[: rank + 1]
    sigma[: values.size] = values
    gaps = [
        k
        for k in range(1, rank + 1)
        if sigma[k - 1] - sigma[k] > SPECTRAL_GAP_RTOL * max(sigma[0], 1e-300)
    ]
    for k in gaps:
        pe = expand.factor[:, :k] @ expand.factor[:, :k].T
        pc = compact.factor[:, :k] @ compact.factor[:, :k].T
        dev = float(np.max(np.abs(pe - pc)))
        if dev > 1e-8:
            problems.append(f"rank-{k} projectors differ by {dev:.3e}")
    detail = "; ".join(problems) or f"subspaces compared at ranks {gaps}"
    return CheckResult(spec, name, "allclose", not problems, detail)


def run_workload_checks(
    gen: GeneratedWorkload,
    ctx: ExecContext,
    *,
    include_process: bool = False,
    dense_limit: int = DENSE_LIMIT,
) -> List[CheckResult]:
    """Run the full differential matrix for one workload.

    ``ctx`` carries the case's budget/collector/plan cache; kernels are
    invoked with it explicitly (it is never made the thread's active
    context, so the dense reference materializations, which declare
    through ``current_context()``, stay outside the budget). The
    returned list contains one :class:`CheckResult` per executed check;
    infeasible checks (dense reference too large, parallel on an empty
    tensor) are skipped, not failed.
    """
    x, u, spec = gen.tensor, gen.factor, gen.spec.spec
    order, dim, rank = gen.spec.order, gen.spec.dim, gen.spec.rank
    unnz = x.unnz
    cols = sym_storage_size(order - 1, rank)
    dense_ok = dense_size(order, dim) <= dense_limit
    results: List[CheckResult] = []

    # Canonical path: serial compact kernel on the generic engine (the
    # bitwise reference the compiled production engine is held to), plan
    # memoized on the tensor.
    y_p = s3ttmc(x, u, kernel="generic", ctx=ctx)
    canonical = y_p.data
    y_full = y_p.to_full_unfolding()

    if dense_ok:
        dense_y = dense_s3ttmc_matrix(x, u)
        results.append(
            _compare(spec, "compact-vs-dense", "allclose", y_full, dense_y)
        )
        results.append(
            _guarded(
                spec,
                "cp-vs-dense",
                "allclose",
                lambda: _compare(
                    spec,
                    "cp-vs-dense",
                    "allclose",
                    symmetric_mttkrp(x, u),
                    _dense_mttkrp(x, u),
                ),
            )
        )
        results.append(
            _guarded(
                spec,
                "tc-vs-dense",
                "allclose",
                lambda: _compare(
                    spec,
                    "tc-vs-dense",
                    "allclose",
                    s3ttmc_tc(x, u, ctx=ctx).a,
                    dense_s3ttmc_tc(x, u),
                ),
            )
        )

    # Property 1: full (CSS) layout equals the expanded compact result.
    results.append(
        _guarded(
            spec,
            "full-vs-compact",
            "allclose",
            lambda: _compare(
                spec,
                "full-vs-compact",
                "allclose",
                css_s3ttmc(x, u, ctx=ctx),
                y_full,
            ),
        )
    )
    # TC on the full layout equals TC on the compact layout.
    results.append(
        _guarded(
            spec,
            "tc-full-vs-compact",
            "allclose",
            lambda: _compare(
                spec,
                "tc-full-vs-compact",
                "allclose",
                css_s3ttmc_tc(x, u, ctx=ctx),
                s3ttmc_tc(x, u, ctx=ctx).a,
            ),
        )
    )

    def kernel(**kwargs) -> np.ndarray:
        return lattice_ttmc(
            x.indices, x.values, dim, u, intermediate="compact", ctx=ctx, **kwargs
        )

    # Plan reuse: same plan object across calls, and an independently
    # rebuilt plan, both bitwise against the canonical run.
    plan = build_plan(x.indices, "global", None)
    results.append(
        _guarded(
            spec,
            "plan-reuse",
            "bitwise",
            lambda: _compare(
                spec, "plan-reuse", "bitwise", kernel(plan=plan), canonical
            ),
        )
    )
    results.append(
        _guarded(
            spec,
            "plan-rebuild",
            "bitwise",
            lambda: _compare(
                spec,
                "plan-rebuild",
                "bitwise",
                kernel(plan=build_plan(x.indices, "global", None)),
                canonical,
            ),
        )
    )

    # Compiled kernels (repro.core.compile): the fused exec-generated
    # path preserves operation order (degree-group reductions, node-aligned
    # chunks, each output row summed left to right in top-edge order) so
    # it must match the generic kernel bitwise; batching/memoization
    # variants reorder (allclose).
    results.append(
        _guarded(
            spec,
            "compiled-vs-generic",
            "bitwise",
            lambda: _compare(
                spec,
                "compiled-vs-generic",
                "bitwise",
                kernel(kernel="compiled"),
                canonical,
            ),
        )
    )
    if dense_ok:
        results.append(
            _guarded(
                spec,
                "compiled-vs-dense",
                "allclose",
                lambda: _compare(
                    spec,
                    "compiled-vs-dense",
                    "allclose",
                    s3ttmc(x, u, kernel="compiled", ctx=ctx).to_full_unfolding(),
                    dense_y,
                ),
            )
        )

    def _compiled_plan_reuse() -> CheckResult:
        # Two calls on the same stamped plan: the second hits the
        # per-plan gather-table cache and must still be bitwise.
        kernel(kernel="compiled", plan=plan)
        return _compare(
            spec,
            "compiled-plan-reuse",
            "bitwise",
            kernel(kernel="compiled", plan=plan),
            canonical,
        )

    results.append(
        _guarded(spec, "compiled-plan-reuse", "bitwise", _compiled_plan_reuse)
    )
    results.append(
        _guarded(
            spec,
            "compiled-chunk-invariance",
            "bitwise",
            lambda: _compare(
                spec,
                "compiled-chunk-invariance",
                "bitwise",
                kernel(kernel="compiled", chunk_edges=64),
                kernel(kernel="compiled", chunk_edges=100_000),
            ),
        )
    )
    # Block-size invariance: every output row is summed left to right in
    # one fixed order, so the generic engine's top-level edge blocks
    # change no bit and the compiled kernel equals it at any block size
    # (down to one top edge per block).
    for label, block in (("64kib", 2**16), ("1edge", 16 * cols)):
        name = f"compiled-vs-generic-block-{label}"
        results.append(
            _guarded(
                spec,
                name,
                "bitwise",
                lambda name=name, block=block: _compare(
                    spec,
                    name,
                    "bitwise",
                    kernel(kernel="compiled"),
                    kernel(block_bytes=block),
                ),
            )
        )
    if unnz > 0:
        results.append(
            _guarded(
                spec,
                "compiled-nz-batch",
                "allclose",
                lambda: _compare(
                    spec,
                    "compiled-nz-batch",
                    "allclose",
                    kernel(kernel="compiled", nz_batch_size=max(1, unnz // 3)),
                    canonical,
                ),
            )
        )
    results.append(
        _guarded(
            spec,
            "compiled-memoize-nonzero",
            "allclose",
            lambda: _compare(
                spec,
                "compiled-memoize-nonzero",
                "allclose",
                kernel(kernel="compiled", memoize="nonzero"),
                canonical,
            ),
        )
    )

    # Reordered-summation paths: batching and memoization scope. Forced
    # non-hoisted gathers with tiny blocks keep every product and the
    # per-row summation order, so they stay bitwise.
    if unnz > 0:
        batch = max(1, unnz // 3)
        results.append(
            _guarded(
                spec,
                "nz-batch",
                "allclose",
                lambda: _compare(
                    spec,
                    "nz-batch",
                    "allclose",
                    kernel(nz_batch_size=batch),
                    canonical,
                ),
            )
        )
    results.append(
        _guarded(
            spec,
            "memoize-nonzero",
            "allclose",
            lambda: _compare(
                spec,
                "memoize-nonzero",
                "allclose",
                kernel(memoize="nonzero"),
                canonical,
            ),
        )
    )
    results.append(
        _guarded(
            spec,
            "nohoist-tiny-blocks",
            "bitwise",
            lambda: _compare(
                spec,
                "nohoist-tiny-blocks",
                "bitwise",
                kernel(block_bytes=2048),
                canonical,
            ),
        )
    )

    # out= / out_row_map= accumulation: same operations, same order.
    def _out_case() -> CheckResult:
        out = np.zeros((dim, cols), dtype=np.float64)
        kernel(out=out)
        return _compare(spec, "out-accumulate", "bitwise", out, canonical)

    results.append(_guarded(spec, "out-accumulate", "bitwise", _out_case))

    def _row_map_identity() -> CheckResult:
        out = np.zeros((dim, cols), dtype=np.float64)
        kernel(out=out, out_row_map=np.arange(dim, dtype=np.int64))
        return _compare(spec, "out-row-map-identity", "bitwise", out, canonical)

    results.append(
        _guarded(spec, "out-row-map-identity", "bitwise", _row_map_identity)
    )

    if unnz >= 2:

        def _row_map_blocks() -> CheckResult:
            from ..parallel.executor import chunk_row_block

            acc = np.zeros((dim, cols), dtype=np.float64)
            mid = unnz // 2
            for start, stop in ((0, mid), (mid, unnz)):
                rows, row_map = chunk_row_block(x.indices[start:stop], dim)
                block = np.zeros((rows.shape[0], cols), dtype=np.float64)
                lattice_ttmc(
                    x.indices[start:stop],
                    x.values[start:stop],
                    dim,
                    u,
                    intermediate="compact",
                    out=block,
                    out_row_map=row_map,
                    ctx=ctx,
                )
                acc[rows] += block
            return _compare(spec, "out-row-map-blocks", "allclose", acc, canonical)

        results.append(
            _guarded(spec, "out-row-map-blocks", "allclose", _row_map_blocks)
        )

    # Error contracts — misuse must raise, never corrupt.
    results.append(
        _expect_raises(
            spec,
            "rejects-float32-out",
            lambda: kernel(out=np.zeros((dim, cols), dtype=np.float32)),
            ValueError,
        )
    )
    results.append(
        _expect_raises(
            spec,
            "rejects-int-out",
            lambda: kernel(out=np.zeros((dim, cols), dtype=np.int64)),
            ValueError,
        )
    )
    touched = np.unique(x.indices) if unnz else np.zeros(0, dtype=np.int64)
    if touched.size >= 1:

        def _unmapped() -> object:
            # Map every touched row except the last; the engine must
            # refuse the -1 instead of wrapping to local row -1.
            row_map = np.full(dim, -1, dtype=np.int64)
            kept = touched[:-1]
            row_map[kept] = np.arange(kept.shape[0], dtype=np.int64)
            out = np.zeros((max(kept.shape[0], 1), cols), dtype=np.float64)
            return kernel(out=out, out_row_map=row_map)

        results.append(
            _expect_raises(spec, "rejects-unmapped-rows", _unmapped, ValueError)
        )
    if unnz >= 1 and dim >= 2:
        alt = np.sort((x.indices + 1) % dim, axis=1)
        perm = np.lexsort(alt.T[::-1])
        alt = alt[perm]
        if alt.tobytes() != x.indices.tobytes():
            stale = build_plan(alt, "global", None)
            results.append(
                _expect_raises(
                    spec,
                    "rejects-stale-plan",
                    lambda: kernel(plan=stale),
                    ValueError,
                )
            )

    results.append(
        _guarded(
            spec,
            "hooi-compact-vs-expand",
            "allclose",
            lambda: _hooi_compact_vs_expand(gen, ctx),
        )
    )

    # Parallel backends run owned shards: workers own disjoint tensor
    # shards and partials merge through the deterministic hierarchical
    # tree, so every backend running the same shards must match the
    # serial run bitwise. Cross-shard sums are reordered relative to the
    # unchunked kernel, so the serial run anchors allclose against the
    # canonical one.
    if unnz > 0:
        n_workers = 3

        def _parallel(
            backend: str,
            kernel_mode: str = "generic",
            run_ctx: ExecContext = None,
            report: ParallelRunReport = None,
        ) -> np.ndarray:
            report = ParallelRunReport() if report is None else report
            return parallel_s3ttmc(
                x,
                u,
                n_workers,
                backend=backend,
                kernel=kernel_mode,
                report=report,
                ctx=ctx if run_ctx is None else run_ctx,
            ).data

        def _sharded_matrix() -> List[CheckResult]:
            out: List[CheckResult] = []
            base = _parallel("serial")
            out.append(
                _compare(
                    spec, "sharded:serial:owned", "allclose", base, canonical
                )
            )
            if include_process:
                out.append(
                    _compare(
                        spec,
                        "sharded:process:owned",
                        "bitwise",
                        _parallel("process"),
                        base,
                    )
                )
            base_c = _parallel("serial", "compiled")
            out.append(
                _compare(
                    spec,
                    "sharded:serial:owned:compiled",
                    "allclose",
                    base_c,
                    canonical,
                )
            )
            if include_process:
                out.append(
                    _compare(
                        spec,
                        "sharded:process:owned:compiled",
                        "bitwise",
                        _parallel("process", "compiled"),
                        base_c,
                    )
                )

            def _exchange_agreement() -> CheckResult:
                # The merge's emitted parallel.reduce.exchange events must
                # equal the planned schedule record-for-record — the
                # contract the distributed simulator builds on.
                collector = TraceCollector()
                run_ctx = ExecContext(
                    budget=ctx.budget,
                    collector=collector,
                    plans=ctx.plans,
                )
                _parallel("serial", run_ctx=run_ctx)
                planned = plan_sharded_exchange(
                    x, n_workers, rank, ctx=run_ctx
                ).exchanges
                measured = exchange_from_trace(collector)
                ok = measured == planned
                detail = (
                    ""
                    if ok
                    else f"measured {measured!r} != planned {planned!r}"
                )
                return CheckResult(
                    spec, "sharded:exchange-plan-vs-trace", "invariant", ok, detail
                )

            out.append(
                _guarded(
                    spec,
                    "sharded:exchange-plan-vs-trace",
                    "invariant",
                    _exchange_agreement,
                )
            )

            if include_process:

                def _shard_loss_recovery() -> CheckResult:
                    # Crash one shard owner mid-run: the respawned worker
                    # re-ingests its shard from the parent's canonical copy
                    # and the run must complete bitwise-identical anyway.
                    name = "sharded:shard-loss-recovery"
                    injector = FaultInjector(
                        [FaultSpec(site="chunk", kind="crash", match={"slot": 0})],
                        seed=0,
                    )
                    run_ctx = ExecContext(
                        budget=ctx.budget,
                        plans=ctx.plans,
                        faults=injector,
                    )
                    report = ParallelRunReport()
                    got = _parallel("process", run_ctx=run_ctx, report=report)
                    if injector.n_fired == 0:
                        return CheckResult(
                            spec, name, "invariant", False, "fault never fired"
                        )
                    if report.shard_reingests < 1:
                        return CheckResult(
                            spec,
                            name,
                            "invariant",
                            False,
                            f"no shard re-ingest (respawns={report.respawns}, "
                            f"fallbacks={report.fallbacks})",
                        )
                    return _compare(spec, name, "bitwise", got, base)

                out.append(
                    _guarded(
                        spec,
                        "sharded:shard-loss-recovery",
                        "invariant",
                        _shard_loss_recovery,
                    )
                )
            return out

        try:
            results.extend(_sharded_matrix())
        except Exception as e:
            results.append(
                CheckResult(
                    spec,
                    "sharded:matrix",
                    "allclose",
                    False,
                    f"raised {type(e).__name__}: {e}",
                )
            )
    return results
