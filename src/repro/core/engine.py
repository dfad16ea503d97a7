"""The shared lattice-evaluation engine behind S³TTMc and its CSS baseline.

Evaluates the sub-multiset lattice bottom-up with one vectorized
gather-multiply-segment-sum per level, in the layout chosen by the caller
(compact ``S_{l,R}`` — SymProp — or full ``R**l`` — the CSS baseline), and
scatters the top-level ``K`` tensors into the output rows: each row summed
left to right over its contributions in
:meth:`~repro.core.lattice.Lattice.top_edge_order`, the order the compiled
kernel streams them in, so both engines agree bitwise at any chunk or
block size.

Performance notes (all heavy work is batched NumPy):

* the structural lattice is *reused* across calls via
  :mod:`repro.core.plan` (the CSS-tree analogue: structure is built once
  per tensor, numeric evaluation per call);
* per level, the factor gather ``U[:, last_index]`` and the parent
  re-layout ``K_{l-1}[:, parent_loc]`` are hoisted out of the edge loop so
  per-edge work is two contiguous row-gathers, one multiply and one
  segment-sum — no 2-D fancy indexing on the hot path;
* node-chunking bounds transient buffers to ``block_bytes``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..runtime.context import ExecContext, resolve_context
from ..symmetry.combinatorics import dense_size, sym_storage_size
from ._segment import add_rows_in_order, sum_runs
from .compile import get_kernel
from .lattice import Lattice
from .layouts import layout_for
from .plan import TTMcPlan, build_plan
from .stats import KernelStats

__all__ = ["lattice_ttmc", "DEFAULT_BLOCK_BYTES", "KERNELS"]

DEFAULT_BLOCK_BYTES = 256 * 2**20

#: Engine modes: the generic batched-gather path (the bitwise reference)
#: and the v2 compiled (fused, exec-generated) path that production
#: S³TTMc runs — bitwise-equal by construction.
KERNELS = ("generic", "compiled")


def lattice_ttmc(
    indices: np.ndarray,
    values: np.ndarray,
    dim: int,
    factor: np.ndarray,
    *,
    intermediate: str = "compact",
    memoize: str = "global",
    kernel: str = "generic",
    chunk_edges: Optional[int] = None,
    stats: Optional[KernelStats] = None,
    nz_batch_size: Optional[int] = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    out: Optional[np.ndarray] = None,
    out_row_map: Optional[np.ndarray] = None,
    plan: Optional[TTMcPlan] = None,
    ctx: Optional[ExecContext] = None,
) -> np.ndarray:
    """Evaluate S³TTMc over IOU non-zeros with the chosen intermediate layout.

    Parameters
    ----------
    indices, values:
        IOU non-zeros, ``(unnz, order)`` and ``(unnz,)``.
    dim:
        Input dimension size ``I`` (output row count).
    factor:
        Factor matrix ``U`` of shape ``(I, R)``.
    intermediate:
        ``"compact"`` (SymProp) or ``"full"`` (CSS baseline). Determines
        both intermediate K-tensor storage and the output column layout:
        ``S_{N-1,R}`` vs ``R**(N-1)``.
    memoize:
        Lattice memoization scope (``"global"`` / ``"nonzero"``); ignored
        when ``plan`` is given.
    kernel:
        ``"generic"`` (batched-gather engine below) or ``"compiled"``
        (:mod:`repro.core.compile`: fused, exec-generated source with
        per-plan gather tables — bitwise-equal results, no materialized
        expansion intermediates).
    chunk_edges:
        Upper bound on edges per fused-gather chunk for the compiled
        kernel (``None`` = :data:`repro.core.compile.DEFAULT_CHUNK_EDGES`);
        each level is further capped at
        :data:`repro.core.compile.CHUNK_BYTES` of chunk buffers. The
        result does not depend on it. Ignored for the generic kernel.
    stats:
        Optional :class:`KernelStats` to fill.
    nz_batch_size:
        Process non-zeros in batches of this size (bounds lattice and
        intermediate memory at a small loss of cross-batch sharing);
        ignored when ``plan`` is given.
    block_bytes:
        Transient per-level gather buffer bound of the generic kernel
        (level chunks and top-level edge blocks); the result does not
        depend on it.
    out:
        Optional pre-allocated ``(I, cols)`` output to accumulate into.
        When the engine allocates ``out`` itself, the allocation is
        *declared* against the active :class:`~repro.runtime.budget.
        MemoryBudget` (pre-flight OOM check + peak tracking) and released
        again on handoff — ownership transfers to the caller, so the
        engine must not leave the bytes pinned in ``in_use`` across
        repeated calls (e.g. one per HOOI iteration).
    out_row_map:
        Optional ``(dim,)`` int64 map from global output row to a local
        row of ``out`` (out-slicing for row-block accumulation). When
        given, ``out`` is required and holds only the mapped rows —
        ``out.shape = (n_local, cols)`` — and every top-level scatter
        target must map to a valid local row. This is what lets parallel
        workers accumulate into compact per-chunk row blocks instead of
        private full-width ``(I, cols)`` copies.
    plan:
        Pre-built :class:`TTMcPlan` for this pattern (reuse across calls).
    ctx:
        Optional :class:`~repro.runtime.context.ExecContext`; its budget
        governs the allocation declarations and its collector receives
        the spans/metrics. ``None`` resolves to
        :func:`~repro.runtime.context.current_context`.

    Returns
    -------
    ``(I, cols)`` matrix: ``Y_p(1)`` for compact, ``Y_(1)`` for full
    (or the ``(n_local, cols)`` row-block when ``out_row_map`` is given).
    """
    ctx = resolve_context(ctx)
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    factor = np.asarray(factor, dtype=np.float64)
    if indices.ndim != 2:
        raise ValueError("indices must be (unnz, order)")
    unnz, order = indices.shape
    if order < 2:
        raise ValueError("S³TTMc requires order >= 2")
    if factor.ndim != 2 or factor.shape[0] != dim:
        raise ValueError(f"factor must be ({dim}, R), got {factor.shape}")
    rank = factor.shape[1]
    if intermediate == "compact":
        cols = sym_storage_size(order - 1, rank)
    elif intermediate == "full":
        cols = dense_size(order - 1, rank)
    elif intermediate == "cp":
        cols = rank
    else:
        raise ValueError(f"unknown intermediate layout {intermediate!r}")
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel mode {kernel!r}; expected one of {KERNELS}")

    if out is not None and out.dtype != np.float64:
        # The scatter accumulates float64 rows into `out`: a
        # float32 buffer silently truncates every contribution and an
        # integer one fails deep in the scatter — reject up front.
        raise ValueError(
            f"out must be float64, got {out.dtype}; accumulating into a "
            f"narrower dtype would silently lose precision"
        )
    if out_row_map is not None:
        out_row_map = np.asarray(out_row_map, dtype=np.int64)
        if out is None:
            raise ValueError("out_row_map requires a pre-allocated out")
        if out_row_map.shape != (dim,):
            raise ValueError(f"out_row_map must be ({dim},)")
        if out.ndim != 2 or out.shape[1] != cols:
            raise ValueError(f"out must be (n_local, {cols})")
    elif out is not None and out.shape != (dim, cols):
        raise ValueError(f"out must be ({dim}, {cols})")

    if plan is not None:
        if plan.order != order:
            raise ValueError("plan order does not match indices")
        if not plan.matches(indices):
            raise ValueError(
                f"plan does not match indices: built for unnz={plan.unnz}, "
                f"fingerprint={plan.fingerprint:#x}, called with "
                f"unnz={unnz} — stale plan reuse would produce garbage"
            )

    # When the engine allocates Y itself it only *pre-flights* the bytes
    # against the budget (OOM check + peak); ownership transfers to the
    # caller on return, so the request is paired with a release on every
    # exit path — otherwise `in_use` climbs by one Y per kernel call.
    owned_label = f"Y ({intermediate})"
    owned_bytes = 0
    if out is None:
        owned_bytes = dim * cols * 8
        ctx.request_bytes(owned_bytes, owned_label)
        out = np.zeros((dim, cols), dtype=np.float64)

    try:
        if stats is not None:
            stats.output_bytes = out.nbytes

        if unnz == 0:
            return out

        if plan is None:
            plan = build_plan(indices, memoize, nz_batch_size, ctx)

        with ctx.span(
            "lattice_ttmc",
            intermediate=intermediate,
            kernel=kernel,
            order=order,
            unnz=unnz,
            rank=rank,
            dim=dim,
        ):
            if kernel == "compiled":
                kern = get_kernel(plan, rank, intermediate, chunk_edges, ctx)
                for (start, stop, _lattice), tables in zip(
                    plan.batches, kern.tables
                ):
                    with ctx.span("lattice.batch", nz_start=start, nz_stop=stop):
                        kern.fn(
                            tables,
                            factor,
                            values[start:stop],
                            out,
                            out_row_map,
                            ctx,
                            stats,
                            ctx.collector,
                        )
                    if stats is not None:
                        stats.batches += 1
            else:
                for start, stop, lattice in plan.batches:
                    with ctx.span("lattice.batch", nz_start=start, nz_stop=stop):
                        _accumulate_batch(
                            lattice,
                            values[start:stop],
                            factor,
                            rank,
                            intermediate,
                            out,
                            stats,
                            block_bytes,
                            out_row_map,
                            ctx,
                        )
                    if stats is not None:
                        stats.batches += 1
        return out
    finally:
        if owned_bytes:
            ctx.release_bytes(owned_bytes, owned_label)


def _accumulate_batch(
    lattice: Lattice,
    values: np.ndarray,
    factor: np.ndarray,
    rank: int,
    intermediate: str,
    out: np.ndarray,
    stats: Optional[KernelStats],
    block_bytes: int,
    out_row_map: Optional[np.ndarray] = None,
    ctx: Optional[ExecContext] = None,
) -> None:
    ctx = resolve_context(ctx)
    order = lattice.order
    # Budget requests held by this call. Every path out — including a
    # MemoryLimitError raised by a later, larger level — must give the
    # bytes back, or retry-after-OOM logic upstream (chunk splitting in
    # repro.parallel) would see a budget that never drains.
    held: list[tuple[int, str]] = []

    def _request(nbytes: int, label: str) -> None:
        ctx.request_bytes(nbytes, label)
        held.append((nbytes, label))

    def _release(nbytes: int, label: str) -> None:
        ctx.release_bytes(nbytes, label)
        held.remove((nbytes, label))

    # Level-1 K tensors are rows of U (identical in both layouts).
    k_prev = factor[lattice.leaf_values]
    k_prev_label = "K level 1"
    collector = ctx.collector
    try:
        _request(k_prev.nbytes, k_prev_label)
        for level in range(2, order):
            layout = layout_for(intermediate, level, rank)
            edges = lattice.levels[level]
            label = f"K level {level}"
            with ctx.span(
                "lattice.level",
                level=level,
                nodes=edges.n_nodes,
                edges=edges.n_edges,
                entry_size=layout.size,
            ):
                _request(edges.n_nodes * layout.size * 8, label)
                k_cur = np.empty((edges.n_nodes, layout.size), dtype=np.float64)
                _compute_level(k_cur, k_prev, factor, edges, layout, block_bytes, ctx)
            if stats is not None:
                stats.add_level(level, edges.n_nodes, edges.n_edges, layout.size)
            if collector is not None:
                collector.metrics.counter(f"lattice.flops.level_{level}").inc(
                    (2 * edges.n_edges - edges.n_nodes) * layout.size
                )
                collector.metrics.histogram("lattice.level_entries").observe(
                    edges.n_nodes * layout.size
                )
            _release(k_prev.nbytes, k_prev_label)
            k_prev, k_prev_label = k_cur, label

        # Top level: scale by non-zero values and add into output rows, each
        # row summed left to right in the lattice's top-edge order (the
        # compiled kernel's streaming order), so edge blocks of any size
        # give the same bits.
        top = lattice.levels[order]
        assert top.node is not None, "top lattice level must retain parent ids"
        n_edges = top.n_edges
        with ctx.span(
            "lattice.scatter",
            level=order - 1,
            edges=n_edges,
            entry_size=k_prev.shape[1],
        ):
            edge_order = lattice.top_edge_order()
            row_bytes = k_prev.shape[1] * 8
            edge_block = max(1, block_bytes // max(2 * row_bytes, 1))
            for estart in range(0, n_edges, edge_block):
                sl = edge_order[estart : estart + edge_block]
                contrib = k_prev[top.child[sl]] * values[top.node[sl], None]
                rows = top.value[sl]
                if out_row_map is not None:
                    rows = out_row_map[rows]
                    if rows.size and rows.min() < 0:
                        # A -1 (unmapped) entry would wrap via Python
                        # negative indexing and corrupt a valid local row.
                        bad = np.unique(top.value[sl][rows < 0])
                        raise ValueError(
                            f"out_row_map has no local row for scatter "
                            f"target rows {bad[:8].tolist()}"
                            f"{'...' if bad.size > 8 else ''} — the row "
                            f"block does not cover this chunk's non-zeros"
                        )
                add_rows_in_order(out, rows, contrib)
        if stats is not None:
            stats.add_scatter(n_edges, k_prev.shape[1])
        if collector is not None:
            collector.metrics.counter("lattice.scatter_flops").inc(
                2 * n_edges * k_prev.shape[1]
            )
        _release(k_prev.nbytes, k_prev_label)
    except BaseException:
        for nbytes, label in held:
            ctx.release_bytes(nbytes, label)
        raise


def _compute_level(
    k_cur: np.ndarray,
    k_prev: np.ndarray,
    factor: np.ndarray,
    edges,
    layout,
    block_bytes: int,
    ctx: Optional[ExecContext] = None,
) -> None:
    """Fill ``k_cur`` node-chunk by node-chunk.

    Per edge ``e`` (term of its node):
    ``contrib[e, s] = U[value[e], last_index[s]] * K_prev[child[e], parent_loc[s]]``
    with both gathers hoisted to per-level row tables. Each chunk is
    gathered degree-major, ``(d, nn, S)``, so its degree sum adds ``d``
    contiguous runs left to right (:func:`~repro.core._segment.sum_runs`).
    """
    ctx = resolve_context(ctx)
    n_nodes = k_cur.shape[0]
    if n_nodes == 0:
        return
    size = layout.size
    row_bytes = size * 8
    edges_per_chunk = max(1, block_bytes // max(2 * row_bytes, 1))
    # Hoisted per-level tables (factor columns re-ordered by last index, the
    # parent K re-laid-out to the child index space) turn the per-edge work
    # into contiguous row-gathers. Hoisting costs (dim + M_{l-1}) * size
    # doubles — cheap in the compact layout, potentially dominant in the
    # full layout — so fall back to per-chunk 2-D gathers when it is large.
    hoist_bytes = (factor.shape[0] + k_prev.shape[0]) * row_bytes
    hoist = hoist_bytes <= 2 * block_bytes
    if hoist:
        # Pre-flight *before* allocating: the whole point of the budget is
        # the OOM check, which must fire while the bytes are uncommitted.
        ctx.request_bytes(hoist_bytes, "level gather tables")
    try:
        if hoist:
            gathered_factor = np.ascontiguousarray(factor[:, layout.last_index])
            expanded_prev = np.ascontiguousarray(k_prev[:, layout.parent_loc])
        for group in edges.groups:
            degree = group.degree
            nodes_per_chunk = max(1, edges_per_chunk // degree)
            for a in range(0, group.n_nodes, nodes_per_chunk):
                b = min(a + nodes_per_chunk, group.n_nodes)
                sl = slice(group.edge_offset + a * degree, group.edge_offset + b * degree)
                value = edges.value[sl].reshape(b - a, degree).T
                child = edges.child[sl].reshape(b - a, degree).T
                if hoist:
                    contrib = gathered_factor[value]
                    contrib *= expanded_prev[child]
                else:
                    contrib = factor[value[..., None], layout.last_index]
                    contrib *= k_prev[child[..., None], layout.parent_loc]
                summed = np.empty((b - a, size), dtype=np.float64)
                sum_runs(contrib, summed)
                k_cur[group.nodes[a:b]] = summed
    finally:
        if hoist:
            ctx.release_bytes(hoist_bytes, "level gather tables")
