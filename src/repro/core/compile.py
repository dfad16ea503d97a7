"""Kernel compiler v2: fused, exec-compiled lattice kernels.

:mod:`repro.core.codegen` reproduces the paper's template-metaprogramming
idea for a *single* outer-product step; this module applies it to the
whole S³TTMc evaluation. For one ``(order, rank, layout, memoize,
chunk_edges)`` configuration — a :class:`KernelSpec` — it generates
vectorized NumPy source with one straight-line section per lattice level,
``exec``-compiles it once, and runs it against per-plan gather tables.

Three fusions distinguish the generated kernels from the generic engine
(:func:`repro.core.engine.lattice_ttmc`):

* **leaf fusion** — level 1 (``K_1`` = rows of ``U``) is folded into the
  level-2 factor gathers via a precomputed ``leaf_values[child]`` index, so
  ``K_1`` and its ``(M_1, S_2)`` expansion are never materialized;
* **expansion fusion** — for levels ≥ 3 the parent ``K`` is consumed in its
  *compact* ``S_{l-1}`` columns and re-laid-out per cache-sized edge chunk
  (``np.take(..., axis=1, out=...)``), eliminating the materialized
  ``(M_{l-1}, S_l)`` ``expanded_prev`` intermediate the generic engine's
  budget accounts for;
* **streamed last level** — level ``N-1`` is computed node chunk by node
  chunk, and each chunk is scaled by the non-zero values and folded into
  ``out`` as soon as it exists (:func:`repro.core._segment.fold_rows`,
  with per-plan grouping tables), so the whole ``K_{N-1}`` — usually the
  largest intermediate — is never allocated and there is no separate top-level
  scatter.

Each fusion preserves the generic engine's floating-point summation order
exactly (every node's terms summed left to right over its edges; every
output row summed left to right over its contributions in level-``N-1``
node order, see :meth:`repro.core.lattice.Lattice.top_edge_order`), so
compiled results are *bitwise* equal to the generic engine's —
:mod:`repro.verify` checks that on every configuration it sweeps.

The tables own each level's node chunks, and each chunk's edges are
stored *degree-major*: edge ``k`` of every node in the chunk, for
``k = 0 .. d-1`` in turn. A chunk's degree sum then adds ``d``
contiguous ``(nn, S)`` runs (:func:`repro.core._segment.sum_runs`)
instead of ``nn * S`` strided ``d``-term sums.

Each level's chunk holds at most ``chunk_edges`` edges and at most
:data:`CHUNK_BYTES` of chunk buffers, so wide rows (high order, large R)
get proportionally fewer edges per chunk and the buffers stay bounded
whatever the row width; the streamed level's fold buffers get their own
:data:`CHUNK_BYTES`. Level chunks never split a lattice node, and the
per-row fold is sequential, so results are bitwise invariant under both
caps.

Caching is two-level:

* the compiled *function* (pattern-independent) lives in a module-level
  LRU keyed by the full :class:`KernelSpec`, tagged with
  ``__codegen_version__`` / ``__kernel_spec__`` / ``__source__``;
* the per-plan *gather tables* live on ``ctx.plans`` keyed by the plan's
  pattern stamp ``(unnz, crc32 fingerprint)`` plus the spec axes, so a
  stale tensor can never hit stale tables — exactly the plan-reuse
  guarantee :class:`repro.core.plan.TTMcPlan` already enforces.

Inspect what the compiler produces with::

    from repro.core.compile import KernelSpec, compiled_kernel
    fn = compiled_kernel(KernelSpec(order=4, rank=8))
    print(fn.__source__)
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..runtime.context import ExecContext, resolve_context
from ..symmetry.combinatorics import dense_size, sym_storage_size
from ._segment import fold_rows, group_rows, sum_runs
from .lattice import Lattice
from .layouts import layout_for
from .plan import TTMcPlan

__all__ = [
    "KERNEL_VERSION",
    "CHUNK_BYTES",
    "DEFAULT_CHUNK_EDGES",
    "KernelSpec",
    "KernelTables",
    "CompiledKernel",
    "build_tables",
    "compiled_kernel",
    "generate_kernel_source",
    "get_kernel",
]

#: Version of the v2 source generator. Bumping it invalidates every cached
#: function and every ``ctx.plans`` table entry (both cache keys embed it).
KERNEL_VERSION = 5

#: Default edges-per-chunk for the fused gather loops — the upper bound;
#: :data:`CHUNK_BYTES` caps it further for wide rows.
DEFAULT_CHUNK_EDGES = 1024

#: Byte cap on one level's chunk buffers: each level's chunk holds at
#: most ``CHUNK_BYTES // row_bytes`` edges, where ``row_bytes`` is what
#: one edge occupies across that level's buffers (a level never chunks
#: below its largest node degree). Keeps the buffers cache-sized and
#: within the generic engine's memory bounds at high order / large R.
CHUNK_BYTES = 512 * 1024

_FN_CACHE_CAP = 32


def _chunk_rows(chunk_edges: int, row_bytes: int) -> int:
    """Edges per chunk for one level: ``chunk_edges`` capped by bytes."""
    return max(1, min(chunk_edges, CHUNK_BYTES // row_bytes))


def _edge_bytes(layout: str, level: int, rank: int) -> int:
    """Chunk-buffer bytes one level-``level`` edge occupies: two factor
    products at the leaf-fused level 2; the compact parent row plus two
    product rows above it."""
    s_cur = _level_size(layout, level, rank)
    if level == 2:
        return 2 * s_cur * 8
    return (_level_size(layout, level - 1, rank) + 2 * s_cur) * 8


def _level_size(layout: str, level: int, rank: int) -> int:
    """Entry count of a level-``level`` K tensor in the given layout."""
    if layout == "compact":
        return sym_storage_size(level, rank)
    if layout == "full":
        return dense_size(level, rank)
    if layout == "cp":
        return rank
    raise ValueError(f"unknown intermediate layout {layout!r}")


@dataclass(frozen=True)
class KernelSpec:
    """One compiled-kernel configuration (the function cache key)."""

    order: int
    rank: int
    layout: str = "compact"
    memoize: str = "global"
    chunk_edges: int = DEFAULT_CHUNK_EDGES
    version: int = field(default=KERNEL_VERSION)

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError("compiled kernels require order >= 2")
        if self.rank < 1:
            raise ValueError("compiled kernels require rank >= 1")
        if self.chunk_edges < 1:
            raise ValueError("chunk_edges must be >= 1")
        _level_size(self.layout, 1, self.rank)  # validates the layout name

    @property
    def function_name(self) -> str:
        return (
            f"_s3ttmc_o{self.order}_r{self.rank}_{self.layout}"
            f"_{self.memoize}_c{self.chunk_edges}"
        )


# ---------------------------------------------------------------------------
# Per-plan gather tables
# ---------------------------------------------------------------------------


class _LevelTables:
    """Flat per-level index tables in degree-major node chunks.

    Nodes are renumbered so every degree group occupies a contiguous row
    range of the level's K matrix; the *next* level's ``child`` array is
    remapped through the inverse permutation at build time, so
    renumbering costs nothing per call. ``chunks`` holds one
    ``(d, nn, e0, n0)`` per chunk: ``nn`` nodes of degree ``d``, rows
    ``n0 : n0 + nn``, computed from table edges ``e0 : e0 + nn*d``, where
    edge ``e0 + k*nn + j`` is node ``n0 + j``'s ``k``-th lattice edge.
    """

    __slots__ = ("value", "child", "chunks", "rows", "n_nodes", "n_edges", "q", "p")

    def __init__(self, value, child, chunks, rows, n_nodes, n_edges, q, p):
        self.value = value
        self.child = child
        self.chunks = chunks
        self.rows = rows  # largest edge count of a chunk
        self.n_nodes = n_nodes
        self.n_edges = n_edges
        self.q = q  # layout last-index gather (factor columns)
        self.p = p  # layout parent-location gather (parent K columns)


class _StreamTables:
    """Tables for the streamed last level: level ``N-1`` computed in node
    chunks, each folded into ``out`` as soon as it exists.

    Top-level edges are sorted by level-``N-1`` node
    (:meth:`~repro.core.lattice.Lattice.top_edge_order`), so each node
    chunk owns a contiguous edge range. Every *piece* is one such range
    (a hub node's range is split over several pieces, of which only the
    first computes the node) together with its
    :func:`~repro.core._segment.group_rows` layout: ``widx`` gathers each
    slot from the chunk buffer ``Kx`` (node rows first, then the piece's
    current ``out`` rows from row ``kn`` on) and ``wnode`` names the
    non-zero that scales it (``n_nonzeros`` = the ``1.0`` a head slot
    keeps).
    """

    __slots__ = ("pieces", "widx", "wnode", "heads", "leaf", "n_edges", "kn", "hn", "wn")

    def __init__(self, pieces, widx, wnode, heads, leaf, n_edges, kn, hn, wn):
        # pieces: ((d, nn, e0, s0, s1, h0, h1, groups), ...) — compute nn
        # nodes of degree d from level edges e0 : e0 + nn*d (nn = 0: the
        # node is already in Kx), then fold slots s0:s1 into heads h0:h1.
        # The computing pieces are level N-1's chunks.
        self.pieces = pieces
        self.widx = widx
        self.wnode = wnode
        self.heads = heads  # output row of each head slot
        self.leaf = leaf  # order 2: factor row of each level-1 node
        self.n_edges = n_edges
        self.kn = kn  # largest node count of a piece (Kx head offset)
        self.hn = hn  # largest head count of a piece
        self.wn = wn  # largest slot count of a piece


class KernelTables:
    """All gather tables one generated kernel needs for one lattice batch."""

    __slots__ = ("levels", "stream")

    def __init__(self, levels: tuple, stream: _StreamTables) -> None:
        self.levels = levels
        self.stream = stream

    @property
    def nbytes(self) -> int:
        total = 0
        for lt in self.levels:
            total += lt.value.nbytes + lt.child.nbytes + lt.q.nbytes + lt.p.nbytes
        st = self.stream
        total += st.widx.nbytes + st.wnode.nbytes + st.heads.nbytes + st.leaf.nbytes
        return total


def _stream_caps(order: int, rank: int, layout: str, chunk_edges: int):
    """``(level-edge cap, node/top-edge cap)`` of one streamed piece.

    The level part gets :data:`CHUNK_BYTES` as any level does; so does the
    fold part — the piece's node rows, head rows and slots, at most
    ``4 * q`` rows of ``S_{N-1}`` for ``q`` nodes and ``q`` top edges.
    """
    lcap = (
        chunk_edges
        if order == 2
        else _chunk_rows(chunk_edges, _edge_bytes(layout, order - 1, rank))
    )
    return lcap, _chunk_rows(chunk_edges, 4 * _level_size(layout, order - 1, rank) * 8)


def _build_stream(lattice: Lattice, rank: int, layout: str, chunk_edges: int):
    """The streamed level's tables, and its computing pieces as
    ``(d, nn, e0, n0)`` chunk rows (see :func:`_level_chunks`)."""
    order = lattice.order
    top = lattice.levels[order]
    assert top.node is not None, "top lattice level must retain parent ids"
    lcap, q = _stream_caps(order, rank, layout, chunk_edges)
    if order == 2:
        n_nodes = lattice.leaf_values.shape[0]
        groups = ((1, n_nodes, 0),)
    else:
        groups = tuple(
            (g.degree, g.n_nodes, g.edge_offset)
            for g in lattice.levels[order - 1].groups
        )
        n_nodes = lattice.levels[order - 1].n_nodes
    perm = lattice.top_edge_order()
    node = lattice.grouped_rank(order - 1)[top.child[perm]]
    tptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(node, minlength=n_nodes), out=tptr[1:])
    tptr_list = tptr.tolist()

    # Greedy pieces: whole nodes while both caps hold; a node with more
    # than q top edges alone, its edges split q at a time.
    pieces = []  # (d, nn, e0, first node, t0, t1)
    r0 = 0
    for d, gn, goff in groups:
        npc = max(1, min(lcap // d, q))
        a = 0
        while a < gn:
            t0 = tptr_list[r0 + a]
            b = bisect.bisect_right(tptr_list, t0 + q, r0 + a, r0 + gn + 1) - 1 - r0
            b = max(a + 1, min(a + npc, b))
            t1 = tptr_list[r0 + b]
            e0 = goff + a * d
            for k, ts in enumerate(range(t0, max(t1, t0 + 1), q)):
                pieces.append((d, b - a if k == 0 else 0, e0, r0 + a, ts, min(ts + q, t1)))
            a = b
        r0 += gn

    bounds = np.array([p[4] for p in pieces] + [top.n_edges], dtype=np.int64)
    grouped = group_rows(top.value[perm], bounds)
    n_edges = top.n_edges
    slot_ptr = bounds + grouped.head_ptr
    piece_of_slot = np.repeat(
        np.arange(len(pieces), dtype=np.int64), np.diff(slot_ptr)
    )
    first_node = np.array([p[3] for p in pieces], dtype=np.int64)
    is_head = grouped.slots >= n_edges
    edge = np.where(is_head, 0, grouped.slots)
    head = np.where(is_head, grouped.slots - n_edges, 0)
    kn = max(p[1] for p in pieces)
    widx = np.where(
        is_head,
        kn + head - grouped.head_ptr[piece_of_slot],
        node[edge] - first_node[piece_of_slot],
    )
    wnode = np.where(is_head, lattice.n_nonzeros, top.node[perm][edge])
    hp = grouped.head_ptr.tolist()
    sp = slot_ptr.tolist()
    chunks = np.array([p[:4] for p in pieces if p[1]], dtype=np.int64).reshape(-1, 4)
    stream = _StreamTables(
        pieces=tuple(
            (d, nn, e0, sp[i], sp[i + 1], hp[i], hp[i + 1], grouped.groups[i])
            for i, (d, nn, e0, _n0, _t0, _t1) in enumerate(pieces)
        ),
        widx=np.ascontiguousarray(widx),
        wnode=np.ascontiguousarray(wnode),
        heads=grouped.heads,
        leaf=np.ascontiguousarray(lattice.leaf_values),
        n_edges=n_edges,
        kn=kn,
        hn=int(np.diff(grouped.head_ptr).max()),
        wn=int(np.diff(slot_ptr).max()),
    )
    return stream, chunks


def _level_chunks(groups, cap: int) -> np.ndarray:
    """``(n_chunks, 4)`` rows ``(d, nn, e0, n0)``: each degree group cut
    into chunks of ``max(1, cap // d)`` whole nodes."""
    parts = [np.zeros((0, 4), dtype=np.int64)]
    n0 = 0
    for g in groups:
        d = g.degree
        a = np.arange(0, g.n_nodes, max(1, cap // d), dtype=np.int64)
        nn = np.diff(np.append(a, g.n_nodes))
        parts.append(
            np.stack([np.full_like(a, d), nn, g.edge_offset + a * d, n0 + a], axis=1)
        )
        n0 += g.n_nodes
    return np.concatenate(parts)


def _degree_major(chunks: np.ndarray) -> np.ndarray:
    """Edge permutation that stores each chunk degree-major.

    ``chunks`` (rows ``(d, nn, e0, n0)``, ``nn > 0``) tile a level's
    node-major edges in order; table edge ``e0 + k*nn + j`` takes lattice
    edge ``e0 + j*d + k``.
    """
    d, nn, e0 = chunks[:, 0], chunks[:, 1], chunks[:, 2]
    # One run per (chunk, k): nn table edges, lattice stride d, from e0 + k.
    k = np.arange(int(d.sum()), dtype=np.int64) - np.repeat(np.cumsum(d) - d, d)
    run_len = np.repeat(nn, d)
    stride = np.repeat(d, d)
    run_e0 = np.repeat(e0, d)
    start = run_e0 + k  # lattice edge of the run's first table edge...
    first = run_e0 + k * run_len  # ...which sits at this table position
    pos = np.arange(int(run_len.sum()), dtype=np.int64)
    return np.repeat(start - first * stride, run_len) + pos * np.repeat(stride, run_len)


def build_tables(
    lattice: Lattice,
    rank: int,
    layout: str,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> KernelTables:
    """Flatten one lattice batch into single-shot gather tables.

    Pattern-only (never touches factor values), built once per plan and
    cached on ``ctx.plans`` — the numeric call then runs pure gathers.
    ``chunk_edges`` (with :data:`CHUNK_BYTES`) fixes every level's node
    chunks and the streamed level's pieces; each level's edges are
    stored degree-major within its chunks.
    """
    order = lattice.order
    stream, stream_chunks = _build_stream(lattice, rank, layout, chunk_edges)
    levels: List[_LevelTables] = []
    inv: Optional[np.ndarray] = None
    for level in range(2, order):
        lay = layout_for(layout, level, rank)
        edges = lattice.levels[level]
        child = edges.child
        if level == 2:
            # Leaf fusion: compose the level-1 indirection away so the
            # generated code gathers factor rows directly.
            child = lattice.leaf_values[child]
        else:
            child = inv[child]
        inv = lattice.grouped_rank(level)
        if level == order - 1:
            chunks = stream_chunks
        else:
            cap = _chunk_rows(chunk_edges, _edge_bytes(layout, level, rank))
            chunks = _level_chunks(edges.groups, cap)
        perm = _degree_major(chunks)
        levels.append(
            _LevelTables(
                value=edges.value[perm],
                child=child[perm],
                chunks=tuple(map(tuple, chunks.tolist())),
                rows=int((chunks[:, 0] * chunks[:, 1]).max(initial=1)),
                n_nodes=edges.n_nodes,
                n_edges=edges.n_edges,
                q=np.ascontiguousarray(lay.last_index),
                p=np.ascontiguousarray(lay.parent_loc),
            )
        )
    return KernelTables(levels=tuple(levels), stream=stream)


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


def _level_lines(level: int, s_cur: int, s_prev: int, row_bytes: int, dest: str):
    """Setup, chunk body and teardown lines of one level's node chunks.

    The body computes ``nn`` rows of level ``level`` into ``dest`` from
    the ``ne`` degree-major edges ``sl`` of ``nn`` degree-``d`` nodes;
    the setup requests and builds the gather tables and ``rows``-edge
    chunk buffers, the teardown gives them back.
    """
    if level == 2:
        setup = [
            f'_req(2 * factor.shape[0] * {s_cur * 8}, "compiled U tables")',
            "Uq = _np.ascontiguousarray(factor[:, lt.q])",
            "Up = _np.ascontiguousarray(factor[:, lt.p])",
            f'_req(rows * {row_bytes}, "compiled chunk buffers")',
            f"A = _np.empty((rows, {s_cur}), dtype=_np.float64)",
            f"B = _np.empty((rows, {s_cur}), dtype=_np.float64)",
        ]
        body = [
            "Ab = A[:ne]",
            '_np.take(Uq, lt.value[sl], axis=0, out=Ab, mode="clip")',
            '_np.take(Up, lt.child[sl], axis=0, out=B[:ne], mode="clip")',
            "Ab *= B[:ne]",
        ]
        prod = "Ab"
        tables = f"2 * factor.shape[0] * {s_cur * 8}"
    else:
        setup = [
            f'_req(factor.shape[0] * {s_cur * 8}, "compiled U tables")',
            "Uq = _np.ascontiguousarray(factor[:, lt.q])",
            f'_req(rows * {row_bytes}, "compiled chunk buffers")',
            f"Cp = _np.empty((rows, {s_prev}), dtype=_np.float64)",
            f"C = _np.empty((rows, {s_cur}), dtype=_np.float64)",
            f"D = _np.empty((rows, {s_cur}), dtype=_np.float64)",
        ]
        body = [
            "Cb = C[:ne]",
            '_np.take(k_prev, lt.child[sl], axis=0, out=Cp[:ne], mode="clip")',
            '_np.take(Cp[:ne], lt.p, axis=1, out=Cb, mode="clip")',
            '_np.take(Uq, lt.value[sl], axis=0, out=D[:ne], mode="clip")',
            "Cb *= D[:ne]",
        ]
        prod = "Cb"
        tables = f"factor.shape[0] * {s_cur * 8}"
    body.append(f"_sum_runs({prod}.reshape(d, nn, {s_cur}), {dest})")
    # Drop the arrays before giving their bytes back, so the budget never
    # counts as free what is still alive.
    teardown = [
        "A = Ab = B = Up = None" if level == 2 else "Cp = C = Cb = D = None",
        f'_rel(rows * {row_bytes}, "compiled chunk buffers")',
        "Uq = None",
        f'_rel({tables}, "compiled U tables")',
    ]
    return setup, body, teardown


def generate_kernel_source(spec: KernelSpec) -> str:
    """Vectorized NumPy source for one kernel configuration.

    One unrolled section per lattice level with all entry sizes baked in
    as literals, mirroring the paper's per-``(l, R)`` template
    instantiation. The emitted function signature is
    ``(tables, factor, values, out, out_row_map, ctx, stats, collector)``
    and accumulates one lattice batch into ``out``.

    Levels ``2 .. N-2`` are materialized one at a time. Level ``N-1`` is
    streamed: each node chunk is scaled by the non-zero values and folded
    into ``out`` (:func:`repro.core._segment.fold_rows`) as soon as it is
    computed, so ``K_{N-1}`` never exists as a whole.
    """
    order, rank, layout = spec.order, spec.rank, spec.layout
    chunk = spec.chunk_edges
    sizes = {lv: _level_size(layout, lv, rank) for lv in range(1, order)}
    top_size = sizes[order - 1]

    lines: List[str] = []
    add = lines.append

    def block(indent: int, src: List[str]) -> None:
        for line in src:
            add(" " * indent + line)

    add(f"def {spec.function_name}(t, factor, values, out, out_row_map, ctx, stats, collector):")
    add(f'    """Generated S3TTMc kernel: order={order}, rank={rank}, '
        f'layout={layout!r},')
    add(f'    memoize={spec.memoize!r}, chunk_edges={chunk} '
        f'(codegen v{KERNEL_VERSION})."""')
    # Budget bookkeeping matches the generic engine: every request is
    # given back on *any* exit path so OOM-retry logic sees a drained
    # budget.
    add("    held = []")
    add("    def _req(n, label):")
    add("        ctx.request_bytes(n, label)")
    add("        held.append((n, label))")
    add("    def _rel(n, label):")
    add("        ctx.release_bytes(n, label)")
    add("        held.remove((n, label))")
    add("    try:")

    for level in range(2, order - 1):
        s_cur = sizes[level]
        row_bytes = _edge_bytes(layout, level, rank)
        setup, body, teardown = _level_lines(
            level, s_cur, sizes[level - 1], row_bytes, "k_cur[n0 : n0 + nn]"
        )
        if level == 2:
            add(f"        # -- level 2 (S={s_cur}): leaf level fused into the factor gathers")
        else:
            add(f"        # -- level {level} (S={s_cur}): parent consumed compact, re-laid-out per chunk")
        add(f"        lt = t.levels[{level - 2}]")
        add(f'        with ctx.span("lattice.level", level={level}, nodes=lt.n_nodes, edges=lt.n_edges, entry_size={s_cur}):')
        add(f'            _req(lt.n_nodes * {s_cur * 8}, "K level {level}")')
        add(f"            k_cur = _np.empty((lt.n_nodes, {s_cur}), dtype=_np.float64)")
        add("            rows = lt.rows")
        block(12, setup)
        add("            for d, nn, e0, n0 in lt.chunks:")
        add("                ne = nn * d")
        add("                sl = slice(e0, e0 + ne)")
        block(16, body)
        block(12, teardown)
        add("        if stats is not None:")
        add(f"            stats.add_level({level}, lt.n_nodes, lt.n_edges, {s_cur})")
        add("        if collector is not None:")
        add(f'            collector.metrics.counter("lattice.flops.level_{level}").inc((2 * lt.n_edges - lt.n_nodes) * {s_cur})')
        add(f'            collector.metrics.histogram("lattice.level_entries").observe(lt.n_nodes * {s_cur})')
        if level > 2:
            add("        k_prev = None")
            add(f'        _rel(t.levels[{level - 3}].n_nodes * {sizes[level - 1] * 8}, "K level {level - 1}")')
        add("        k_prev = k_cur")
        add("        k_cur = None")

    # -- the streamed level N-1 and its fold into out ----------------------
    last = order - 1
    fold_bytes = f"(st.kn + st.hn + st.wn) * {top_size * 8}"
    add("        st = t.stream")
    if last == 1:
        add(f"        # -- top level (S={top_size}): factor rows folded into out")
        add(f'        with ctx.span("lattice.scatter", level=1, edges=st.n_edges, entry_size={top_size}):')
    else:
        add(f"        # -- level {last} (S={top_size}), streamed: each node chunk folded into out")
        add(f"        lt = t.levels[{last - 2}]")
        add(f'        with ctx.span("lattice.level", level={last}, nodes=lt.n_nodes, edges=lt.n_edges, entry_size={top_size}, scatter_edges=st.n_edges):')
    add("            if out_row_map is None:")
    add("                lrows = st.heads")
    add("            else:")
    add("                lrows = out_row_map[st.heads]")
    add("                if lrows.size and lrows.min() < 0:")
    add("                    bad = _np.unique(st.heads[lrows < 0])")
    add('                    raise ValueError(')
    add('                        "out_row_map has no local row for scatter target rows "')
    add('                        + str(bad[:8].tolist())')
    add('                        + ("..." if bad.size > 8 else "")')
    add('                        + " - the row block does not cover this chunk\'s non-zeros"')
    add("                    )")
    add("                if lrows.size and lrows.max() >= out.shape[0]:")
    add('                    raise IndexError("out_row_map maps a scatter target past the rows of out")')
    # Head slots gather the current out rows and are scaled by 1.0 (exact).
    add("            wsc = _np.append(values, 1.0)[st.wnode]")
    if last > 1:
        setup, body, teardown = _level_lines(
            last, top_size, sizes[last - 1], _edge_bytes(layout, last, rank), "Kx[:nn]"
        )
        add("            rows = lt.rows")
        block(12, setup)
    add(f'            _req({fold_bytes}, "compiled chunk buffers")')
    add(f"            Kx = _np.empty((st.kn + st.hn, {top_size}), dtype=_np.float64)")
    add(f"            W = _np.empty((st.wn, {top_size}), dtype=_np.float64)")
    add("            KH = Kx[st.kn :]")
    add("            for d, nn, e0, s0, s1, h0, h1, groups in st.pieces:")
    add("                if nn:")
    if last == 1:
        add('                    _np.take(factor, st.leaf[e0 : e0 + nn], axis=0, out=Kx[:nn], mode="clip")')
    else:
        add("                    ne = nn * d")
        add("                    sl = slice(e0, e0 + ne)")
        block(20, body)
    add("                nh = h1 - h0")
    add('                _np.take(out, lrows[h0:h1], axis=0, out=KH[:nh], mode="clip")')
    add("                Wb = W[: s1 - s0]")
    add('                _np.take(Kx, st.widx[s0:s1], axis=0, out=Wb, mode="clip")')
    add("                Wb *= wsc[s0:s1, None]")
    add("                _fold(Wb, groups, KH)")
    add("                out[lrows[h0:h1]] = KH[:nh]")
    add("            Kx = KH = W = Wb = None")
    add(f'            _rel({fold_bytes}, "compiled chunk buffers")')
    if last > 1:
        block(12, teardown)
    add("        if stats is not None:")
    if last > 1:
        add(f"            stats.add_level({last}, lt.n_nodes, lt.n_edges, {top_size})")
    add(f"            stats.add_scatter(st.n_edges, {top_size})")
    add("        if collector is not None:")
    if last > 1:
        add(f'            collector.metrics.counter("lattice.flops.level_{last}").inc((2 * lt.n_edges - lt.n_nodes) * {top_size})')
        add(f'            collector.metrics.histogram("lattice.level_entries").observe(lt.n_nodes * {top_size})')
    add(f'            collector.metrics.counter("lattice.scatter_flops").inc(2 * st.n_edges * {top_size})')
    if last > 2:
        add("        k_prev = None")
        add(f'        _rel(t.levels[{last - 3}].n_nodes * {sizes[last - 1] * 8}, "K level {last - 1}")')
    add("    except BaseException:")
    add("        for n, label in held:")
    add("            ctx.release_bytes(n, label)")
    add("        raise")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Compilation cache (module-level LRU, version-tagged)
# ---------------------------------------------------------------------------

_FN_CACHE: "OrderedDict[KernelSpec, Callable]" = OrderedDict()
_FN_LOCK = threading.Lock()


def compiled_kernel(spec: KernelSpec) -> Callable:
    """Exec-compiled kernel for ``spec``, LRU-cached (cap ``32``).

    The returned function is tagged: ``__kernel_spec__`` (the spec),
    ``__codegen_version__`` (:data:`KERNEL_VERSION`) and ``__source__``
    (the generated text, for inspection).
    """
    with _FN_LOCK:
        fn = _FN_CACHE.get(spec)
        if fn is not None:
            _FN_CACHE.move_to_end(spec)
            return fn
    source = generate_kernel_source(spec)
    namespace: dict = {"_np": np, "_fold": fold_rows, "_sum_runs": sum_runs}
    exec(
        compile(source, f"<repro.core.compile {spec.function_name}>", "exec"),
        namespace,
    )
    fn = namespace[spec.function_name]
    fn.__kernel_spec__ = spec
    fn.__codegen_version__ = KERNEL_VERSION
    fn.__source__ = source
    with _FN_LOCK:
        existing = _FN_CACHE.get(spec)
        if existing is not None:
            return existing
        _FN_CACHE[spec] = fn
        while len(_FN_CACHE) > _FN_CACHE_CAP:
            _FN_CACHE.popitem(last=False)
    return fn


# ---------------------------------------------------------------------------
# Engine entry
# ---------------------------------------------------------------------------


@dataclass
class CompiledKernel:
    """A ready-to-run kernel: compiled function + per-batch tables."""

    spec: KernelSpec
    fn: Callable
    tables: Tuple[KernelTables, ...]


def get_kernel(
    plan: TTMcPlan,
    rank: int,
    intermediate: str,
    chunk_edges: Optional[int],
    ctx: Optional[ExecContext] = None,
) -> CompiledKernel:
    """Resolve (compile + build/fetch tables for) one plan's kernel.

    Tables are cached on ``ctx.plans`` keyed by the plan's pattern stamp
    ``(unnz, fingerprint)`` plus every axis that changes their content —
    so a rebuilt/changed tensor misses, and a version bump invalidates.
    Legacy unstamped plans (``unnz < 0``) are never cached.
    """
    ctx = resolve_context(ctx)
    chunk = DEFAULT_CHUNK_EDGES if chunk_edges is None else int(chunk_edges)
    spec = KernelSpec(
        order=plan.order,
        rank=rank,
        layout=intermediate,
        memoize=plan.memoize,
        chunk_edges=chunk,
    )
    fn = compiled_kernel(spec)
    metrics = ctx.metrics
    tables: Optional[Tuple[KernelTables, ...]] = None
    key = None
    if plan.unnz >= 0:
        key = (
            plan.unnz,
            plan.fingerprint,
            plan.order,
            plan.memoize,
            plan.nz_batch_size,
            rank,
            intermediate,
            chunk,
            KERNEL_VERSION,
        )
        tables = ctx.plans.compiled_get(key)
    if tables is None:
        tables = tuple(
            build_tables(lattice, rank, intermediate, chunk)
            for _start, _stop, lattice in plan.batches
        )
        if key is not None:
            ctx.plans.compiled_put(key, tables)
        if metrics is not None:
            metrics.counter("compile.tables.misses").inc()
    else:
        if metrics is not None:
            metrics.counter("compile.tables.hits").inc()
    return CompiledKernel(spec=spec, fn=fn, tables=tables)
