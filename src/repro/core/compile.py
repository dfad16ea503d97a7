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
* **presorted scatter** — the top-level edges are stably pre-sorted by
  output row at table-build time, so the per-call scatter is a gather +
  scale + segment-aligned ``np.add.reduceat`` with no runtime argsort.

Each fusion preserves the generic engine's floating-point summation order
exactly (same degree-group reduction, same stable edge order per output
row), so compiled results are *bitwise* equal to the generic engine's —
:mod:`repro.verify` checks that on every configuration it sweeps.

Each level's chunk holds at most ``chunk_edges`` edges and at most
:data:`CHUNK_BYTES` of chunk buffers, so wide rows (high order, large R)
get proportionally fewer edges per chunk and the buffers stay bounded
whatever the row width. Chunk boundaries never split a lattice node or
an output-row segment, so results are bitwise invariant under both caps.

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

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..runtime.context import ExecContext, resolve_context
from ..symmetry.combinatorics import dense_size, sym_storage_size
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
    "clear_kernel_cache",
    "compiled_kernel",
    "generate_kernel_source",
    "get_kernel",
    "kernel_cache_info",
]

#: Version of the v2 source generator. Bumping it invalidates every cached
#: function and every ``ctx.plans`` table entry (both cache keys embed it).
KERNEL_VERSION = 3

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
    """Flat per-level index tables, node-renumbered for contiguous writes.

    Nodes are renumbered so every degree group occupies a contiguous row
    range of the level's K matrix — the generated degree-sum writes
    straight into a slice (``np.sum(..., out=k[r0:r1])``) with no
    fancy-index scatter. The *next* level's ``child`` array is remapped
    through the inverse permutation at build time, so renumbering costs
    nothing per call.
    """

    __slots__ = (
        "value", "child", "groups", "n_nodes", "n_edges", "max_degree", "q", "p"
    )

    def __init__(self, value, child, groups, n_nodes, n_edges, max_degree, q, p):
        self.value = value
        self.child = child
        self.groups = groups  # ((degree, n_nodes, edge_offset), ...)
        self.n_nodes = n_nodes
        self.n_edges = n_edges
        self.max_degree = max_degree
        self.q = q  # layout last-index gather (factor columns)
        self.p = p  # layout parent-location gather (parent K columns)


class _TopTables:
    """Top-level scatter tables, stably pre-sorted by output row.

    The stable sort matches :func:`repro.core._segment.scatter_add_rows`'s
    ``np.argsort(rows, kind="stable")`` exactly, so per-row summation
    order — and therefore the floating-point result — is bitwise identical
    to the generic engine's.
    """

    __slots__ = ("child", "node", "urows", "ptr", "n_edges")

    def __init__(self, child, node, urows, ptr, n_edges):
        self.child = child
        self.node = node
        self.urows = urows  # unique output rows, ascending
        self.ptr = ptr  # segment start per unique row, then n_edges
        self.n_edges = n_edges


class KernelTables:
    """All gather tables one generated kernel needs for one lattice batch."""

    __slots__ = ("levels", "top")

    def __init__(self, levels: tuple, top: _TopTables) -> None:
        self.levels = levels
        self.top = top

    @property
    def nbytes(self) -> int:
        total = 0
        for lt in self.levels:
            total += lt.value.nbytes + lt.child.nbytes + lt.q.nbytes + lt.p.nbytes
        tt = self.top
        total += tt.child.nbytes + tt.node.nbytes + tt.urows.nbytes + tt.ptr.nbytes
        return total


def build_tables(lattice: Lattice, rank: int, layout: str) -> KernelTables:
    """Flatten one lattice batch into single-shot gather tables.

    Pattern-only (never touches factor values), built once per plan and
    cached on ``ctx.plans`` — the numeric call then runs pure gathers.
    """
    order = lattice.order
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
        if edges.groups:
            perm = np.concatenate([g.nodes for g in edges.groups])
        else:
            perm = np.empty(0, dtype=np.int64)
        inv = np.empty(edges.n_nodes, dtype=np.int64)
        inv[perm] = np.arange(edges.n_nodes, dtype=np.int64)
        levels.append(
            _LevelTables(
                value=np.ascontiguousarray(edges.value),
                child=np.ascontiguousarray(child),
                groups=tuple(
                    (g.degree, g.n_nodes, g.edge_offset) for g in edges.groups
                ),
                n_nodes=edges.n_nodes,
                n_edges=edges.n_edges,
                max_degree=max((g.degree for g in edges.groups), default=1),
                q=np.ascontiguousarray(lay.last_index),
                p=np.ascontiguousarray(lay.parent_loc),
            )
        )

    top = lattice.levels[order]
    assert top.node is not None, "top lattice level must retain parent ids"
    child = top.child
    child = lattice.leaf_values[child] if order == 2 else inv[child]
    rows = top.value
    # Stable sort by output row: identical permutation to the generic
    # scatter's argsort, preserving original edge order within each row.
    perm_t = np.argsort(rows, kind="stable")
    rows_sorted = rows[perm_t]
    urows, ptr = np.unique(rows_sorted, return_index=True)
    return KernelTables(
        levels=tuple(levels),
        top=_TopTables(
            child=np.ascontiguousarray(child[perm_t]),
            node=np.ascontiguousarray(top.node[perm_t]),
            urows=np.ascontiguousarray(urows),
            ptr=np.append(ptr.astype(np.int64), np.int64(top.n_edges)),
            n_edges=top.n_edges,
        ),
    )


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


def generate_kernel_source(spec: KernelSpec) -> str:
    """Vectorized NumPy source for one kernel configuration.

    One unrolled section per lattice level with all entry sizes baked in
    as literals, mirroring the paper's per-``(l, R)`` template
    instantiation. The emitted function signature is
    ``(tables, factor, values, out, out_row_map, ctx, stats, collector)``
    and accumulates one lattice batch into ``out``.
    """
    order, rank, layout = spec.order, spec.rank, spec.layout
    chunk = spec.chunk_edges
    sizes = {lv: _level_size(layout, lv, rank) for lv in range(1, order)}
    top_size = sizes[order - 1]

    lines: List[str] = []
    add = lines.append
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

    for level in range(2, order):
        s_cur = sizes[level]
        i = level - 2
        if level == 2:
            add(f"        # -- level 2 (S={s_cur}): leaf level fused into the factor gathers")
            add(f"        lt = t.levels[{i}]")
            add(f'        with ctx.span("lattice.level", level=2, nodes=lt.n_nodes, edges=lt.n_edges, entry_size={s_cur}):')
            add(f'            _req(2 * factor.shape[0] * {s_cur * 8}, "compiled U tables")')
            add("            Uq = _np.ascontiguousarray(factor[:, lt.q])")
            add("            Up = _np.ascontiguousarray(factor[:, lt.p])")
            add(f'            _req(lt.n_nodes * {s_cur * 8}, "K level 2")')
            add(f"            k_prev = _np.empty((lt.n_nodes, {s_cur}), dtype=_np.float64)")
            cap = _chunk_rows(chunk, 2 * s_cur * 8)
            add(f"            rows = min(max({cap}, lt.max_degree), max(lt.n_edges, 1))")
            add(f'            _req(2 * rows * {s_cur * 8}, "compiled chunk buffers")')
            add(f"            A = _np.empty((rows, {s_cur}), dtype=_np.float64)")
            add(f"            B = _np.empty((rows, {s_cur}), dtype=_np.float64)")
            add("            r0 = 0")
            add("            for d, gn, goff in lt.groups:")
            add(f"                npc = max(1, {cap} // d)")
            add("                for a in range(0, gn, npc):")
            add("                    b = min(a + npc, gn)")
            add("                    ne = (b - a) * d")
            add("                    sl = slice(goff + a * d, goff + b * d)")
            add("                    Ab = A[:ne]")
            add("                    _np.take(Uq, lt.value[sl], axis=0, out=Ab)")
            add("                    _np.take(Up, lt.child[sl], axis=0, out=B[:ne])")
            add("                    Ab *= B[:ne]")
            add("                    if d == 1:")
            add("                        k_prev[r0 + a : r0 + b] = Ab")
            add("                    else:")
            add(f"                        _np.sum(Ab.reshape(b - a, d, {s_cur}), axis=1, out=k_prev[r0 + a : r0 + b])")
            add("                r0 += gn")
            add(f'            _rel(2 * rows * {s_cur * 8}, "compiled chunk buffers")')
            add(f'            _rel(2 * factor.shape[0] * {s_cur * 8}, "compiled U tables")')
        else:
            s_prev = sizes[level - 1]
            add(f"        # -- level {level} (S={s_cur}): parent consumed compact, re-laid-out per chunk")
            add(f"        lt = t.levels[{i}]")
            add(f'        with ctx.span("lattice.level", level={level}, nodes=lt.n_nodes, edges=lt.n_edges, entry_size={s_cur}):')
            add(f'            _req(factor.shape[0] * {s_cur * 8}, "compiled U tables")')
            add("            Uq = _np.ascontiguousarray(factor[:, lt.q])")
            add(f'            _req(lt.n_nodes * {s_cur * 8}, "K level {level}")')
            add(f"            k_cur = _np.empty((lt.n_nodes, {s_cur}), dtype=_np.float64)")
            cap = _chunk_rows(chunk, (s_prev + 2 * s_cur) * 8)
            add(f"            rows = min(max({cap}, lt.max_degree), max(lt.n_edges, 1))")
            add(f'            _req(rows * {(s_prev + 2 * s_cur) * 8}, "compiled chunk buffers")')
            add(f"            Cp = _np.empty((rows, {s_prev}), dtype=_np.float64)")
            add(f"            C = _np.empty((rows, {s_cur}), dtype=_np.float64)")
            add(f"            D = _np.empty((rows, {s_cur}), dtype=_np.float64)")
            add("            r0 = 0")
            add("            for d, gn, goff in lt.groups:")
            add(f"                npc = max(1, {cap} // d)")
            add("                for a in range(0, gn, npc):")
            add("                    b = min(a + npc, gn)")
            add("                    ne = (b - a) * d")
            add("                    sl = slice(goff + a * d, goff + b * d)")
            add("                    Cb = C[:ne]")
            add("                    _np.take(k_prev, lt.child[sl], axis=0, out=Cp[:ne])")
            add("                    _np.take(Cp[:ne], lt.p, axis=1, out=Cb)")
            add("                    _np.take(Uq, lt.value[sl], axis=0, out=D[:ne])")
            add("                    Cb *= D[:ne]")
            add("                    if d == 1:")
            add("                        k_cur[r0 + a : r0 + b] = Cb")
            add("                    else:")
            add(f"                        _np.sum(Cb.reshape(b - a, d, {s_cur}), axis=1, out=k_cur[r0 + a : r0 + b])")
            add("                r0 += gn")
            add(f'            _rel(rows * {(s_prev + 2 * s_cur) * 8}, "compiled chunk buffers")')
            add(f'            _rel(factor.shape[0] * {s_cur * 8}, "compiled U tables")')
        add("        if stats is not None:")
        add(f"            stats.add_level({level}, lt.n_nodes, lt.n_edges, {s_cur})")
        add("        if collector is not None:")
        add(f'            collector.metrics.counter("lattice.flops.level_{level}").inc((2 * lt.n_edges - lt.n_nodes) * {s_cur})')
        add(f'            collector.metrics.histogram("lattice.level_entries").observe(lt.n_nodes * {s_cur})')
        if level > 2:
            add(f'        _rel(t.levels[{i - 1}].n_nodes * {sizes[level - 1] * 8}, "K level {level - 1}")')
            add("        k_prev = k_cur")

    ksrc = "factor" if order == 2 else "k_prev"
    add(f"        # -- top level (S={top_size}): presorted scale + segment reduceat")
    add("        tt = t.top")
    add(f'        with ctx.span("lattice.scatter", edges=tt.n_edges, entry_size={top_size}):')
    add("            if out_row_map is None:")
    add("                lrows = tt.urows")
    add("            else:")
    add("                lrows = out_row_map[tt.urows]")
    add("                if lrows.size and lrows.min() < 0:")
    add("                    bad = tt.urows[lrows < 0]")
    add('                    raise ValueError(')
    add('                        "out_row_map has no local row for scatter target rows "')
    add('                        + str(bad[:8].tolist())')
    add('                        + ("..." if bad.size > 8 else "")')
    add('                        + " - the row block does not cover this chunk\'s non-zeros"')
    add("                    )")
    add("            vscale = values[tt.node]")
    add("            nseg = tt.urows.shape[0]")
    add(f"            rows = min({_chunk_rows(chunk, top_size * 8)}, max(tt.n_edges, 1))")
    add(f'            _req(rows * {top_size * 8}, "compiled chunk buffers")')
    add(f"            E = _np.empty((rows, {top_size}), dtype=_np.float64)")
    add("            ptr = tt.ptr")
    add("            a = 0")
    add("            while a < nseg:")
    add("                e0 = ptr[a]")
    # Pack whole segments greedily up to ``rows`` edges; a segment longer
    # than the chunk is reduced alone, in its own accounted buffer (one
    # reduceat per segment keeps the summation order, hence bitwise).
    add('                b = max(a + 1, int(_np.searchsorted(ptr, e0 + rows, side="right")) - 1)')
    add("                e1 = ptr[b]")
    add("                ne = e1 - e0")
    add("                if ne <= rows:")
    add("                    Eb = E[:ne]")
    add("                else:")
    add(f'                    _req(ne * {top_size * 8}, "compiled scatter overflow")')
    add(f"                    Eb = _np.empty((ne, {top_size}), dtype=_np.float64)")
    add(f"                _np.take({ksrc}, tt.child[e0:e1], axis=0, out=Eb)")
    add("                Eb *= vscale[e0:e1, None]")
    add("                out[lrows[a:b]] += _np.add.reduceat(Eb, ptr[a:b] - e0, axis=0)")
    add("                if ne > rows:")
    add("                    Eb = None")
    add(f'                    _rel(ne * {top_size * 8}, "compiled scatter overflow")')
    add("                a = b")
    add(f'            _rel(rows * {top_size * 8}, "compiled chunk buffers")')
    add("        if stats is not None:")
    add(f"            stats.add_scatter(tt.n_edges, {top_size})")
    add("        if collector is not None:")
    add(f'            collector.metrics.counter("lattice.scatter_flops").inc(2 * tt.n_edges * {top_size})')
    if order > 2:
        add(f'        _rel(k_prev.shape[0] * {top_size * 8}, "K level {order - 1}")')
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
    namespace: dict = {"_np": np}
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


def kernel_cache_info() -> dict:
    """Size/cap/contents of the compiled-function LRU (for tests/tools)."""
    with _FN_LOCK:
        return {
            "size": len(_FN_CACHE),
            "cap": _FN_CACHE_CAP,
            "specs": list(_FN_CACHE),
        }


def clear_kernel_cache() -> None:
    """Drop every cached compiled kernel (tests, version bumps)."""
    with _FN_LOCK:
        _FN_CACHE.clear()


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
            KERNEL_VERSION,
        )
        tables = ctx.plans.compiled_get(key)
    if tables is None:
        tables = tuple(
            build_tables(lattice, rank, intermediate)
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
