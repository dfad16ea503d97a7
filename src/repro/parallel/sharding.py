"""Tensor shards and the hierarchical cross-shard reduction.

The structure layer of parallel execution: each worker owns a disjoint
:class:`TensorShard` — a contiguous slice of the IOU non-zero list plus
the private row-block of ``Y`` its top-level scatter touches (the
blocked symmetric layout of Schatz et al., applied to the unique-index
representation) — and never holds the rest of the tensor.

Two pieces live here because everything above needs them agree exactly:

* :func:`build_shards` — the cost-balanced sharder. It reuses the same
  cached :func:`partition_ranges` the chunked executor uses, so a
  shard's non-zero slice is bit-identical to the matching executor chunk
  and per-shard partials are bitwise-reproducible across backends.
* :func:`hierarchical_merge` — the deterministic pairwise-tree reduction
  over ``(rows, block)`` shard partials. Adjacent shards merge each
  round (odd tail carries), always left-then-right, so the summation
  order is a function of the shard layout alone — never of completion
  order or backend. Each merge emits a ``parallel.reduce.exchange``
  trace event whose ``rows``/``bytes`` are exactly what
  :func:`merge_schedule` predicts from the row sets, which is what lets
  :mod:`repro.parallel.distributed` model the real exchange volumes and
  the verify oracle check simulator/trace agreement.

``chunk_row_block`` and ``partition_ranges`` moved here from
``executor.py`` (which re-exports them): shards and chunks are built
from the same row-block and partition primitives by construction, not
by convention.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import trace as _trace
from ..runtime.context import ExecContext, check_sharding, resolve_context
from .partition import balanced_partition, estimate_nonzero_costs

__all__ = [
    "TensorShard",
    "build_shards",
    "shards_for_ranges",
    "chunk_row_block",
    "partition_ranges",
    "hierarchical_merge",
    "merge_schedule",
    "shard_resident_bytes",
]


def chunk_row_block(indices: np.ndarray, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(rows, row_map)`` for one chunk's compact output block.

    ``rows`` is the sorted distinct index values of the chunk (the exact
    set of output rows its top-level scatter hits); ``row_map`` inverts
    it over ``[0, dim)`` with ``-1`` for untouched rows.
    """
    rows = np.unique(indices)
    row_map = np.full(dim, -1, dtype=np.int64)
    row_map[rows] = np.arange(rows.shape[0], dtype=np.int64)
    return rows, row_map


def partition_ranges(
    tensor, rank: int, n_chunks: int, ctx: Optional[ExecContext] = None
) -> Tuple[Tuple[int, int], ...]:
    """Balanced non-zero partition, cached per ``(n_chunks, rank)``.

    The cost estimate depends on the rank (row widths scale with it) but
    not on factor values, so the partition — like the plans keyed on it —
    is stable across iterations. Cached on the context's plan cache.
    """
    cache = resolve_context(ctx).plans.partitions(tensor)
    key = (int(n_chunks), int(rank))
    ranges = cache.get(key)
    if ranges is None:
        costs = estimate_nonzero_costs(tensor.indices, rank)
        ranges = tuple(
            r for r in balanced_partition(costs, n_chunks) if r[0] < r[1]
        )
        cache[key] = ranges
    return ranges


@dataclass(frozen=True)
class TensorShard:
    """One worker's disjoint slice of the tensor plus its ``Y`` row-block.

    ``indices``/``values`` are zero-copy views of the parent tensor's
    contiguous ``[start, stop)`` slice — the parent keeps the canonical
    copy, which is what makes shard *re-ingest* after a worker loss a
    re-send of this slice rather than of the whole tensor.
    ``rows``/``row_map`` describe the private compact row-block exactly
    as :func:`chunk_row_block` builds it for a chunk, so a shard partial
    is bitwise-identical to the matching chunk partial.
    """

    shard_id: int
    start: int
    stop: int
    indices: np.ndarray
    values: np.ndarray
    dim: int
    rows: np.ndarray
    row_map: np.ndarray
    cost: float = 0.0

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def order(self) -> int:
        return self.indices.shape[1]

    @property
    def nbytes(self) -> int:
        """Resident tensor bytes a worker owning this shard must hold."""
        return int(self.indices.nbytes + self.values.nbytes)



def shards_for_ranges(
    tensor, ranges: Sequence[Tuple[int, int]], rank: int
) -> List[TensorShard]:
    """Shards for explicit (already balanced, non-empty) ``ranges``."""
    indices = tensor.indices
    values = tensor.values
    costs = estimate_nonzero_costs(indices, rank)
    shards: List[TensorShard] = []
    for shard_id, (start, stop) in enumerate(ranges):
        rows, row_map = chunk_row_block(indices[start:stop], tensor.dim)
        shards.append(
            TensorShard(
                shard_id=shard_id,
                start=int(start),
                stop=int(stop),
                indices=indices[start:stop],
                values=values[start:stop],
                dim=tensor.dim,
                rows=rows,
                row_map=row_map,
                cost=float(costs[start:stop].sum()),
            )
        )
    return shards


def build_shards(
    tensor, n_shards: int, rank: int, *, ctx: Optional[ExecContext] = None
) -> List[TensorShard]:
    """Cost-balanced disjoint shards covering every non-zero of ``tensor``.

    Uses the same cached :func:`partition_ranges` as the chunked
    executor (empty ranges filtered), so at most ``n_shards`` shards
    come back and each equals the corresponding executor chunk.
    """
    ranges = partition_ranges(tensor, rank, max(1, int(n_shards)), ctx)
    return shards_for_ranges(tensor, ranges, rank)


def shard_resident_bytes(
    unnz: int,
    order: int,
    ranges: Sequence[Tuple[int, int]],
    *,
    sharding: str = "owned",
) -> int:
    """Max per-worker resident tensor bytes: the widest shard's.

    One non-zero is ``order`` int64 index entries plus one float64
    value. ``unnz`` and ``sharding`` stay for existing callers;
    ``sharding`` must be ``"owned"`` (see
    :func:`~repro.runtime.context.check_sharding`).
    """
    check_sharding(sharding)
    widest = max((stop - start for start, stop in ranges), default=0)
    return widest * (order * 8 + 8)


def _pairings(n: int) -> List[List[Tuple[int, int]]]:
    """Per-round (left, right) index pairs of the deterministic merge tree.

    Indices refer to the *surviving* list at the start of each round:
    adjacent elements pair up, an odd tail carries to the next round.
    Shared by :func:`hierarchical_merge` and :func:`merge_schedule` so
    measured and modeled exchanges can never drift apart.
    """
    rounds: List[List[Tuple[int, int]]] = []
    while n > 1:
        rounds.append([(i, i + 1) for i in range(0, n - 1, 2)])
        n = (n + 1) // 2
    return rounds


def merge_schedule(
    row_sets: Sequence[np.ndarray], cols: int
) -> List[Dict[str, int]]:
    """Predicted per-merge exchange records for shard ``row_sets``.

    Returns one record per pairwise merge, in execution order:
    ``{"round", "src", "dst", "rows", "bytes"}`` where ``src``/``dst``
    are shard-tree slots at that round, ``rows`` is the row count of the
    right (shipped) operand and ``bytes`` its block plus row-index
    payload (``rows · (cols·8 + 8)``). This is exactly what
    :func:`hierarchical_merge` emits as ``parallel.reduce.exchange``
    events — the distributed simulator and the verify oracle rely on the
    two agreeing record-for-record.
    """
    items = [np.asarray(r) for r in row_sets]
    schedule: List[Dict[str, int]] = []
    for rnd, pairs in enumerate(_pairings(len(items))):
        nxt: List[np.ndarray] = []
        used = set()
        for left, right in pairs:
            used.update((left, right))
            rows_right = int(items[right].shape[0])
            schedule.append(
                {
                    "round": rnd,
                    "src": right,
                    "dst": left,
                    "rows": rows_right,
                    "bytes": rows_right * (int(cols) * 8 + 8),
                }
            )
            nxt.append(np.union1d(items[left], items[right]))
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return schedule


def hierarchical_merge(
    partials: Sequence[Tuple[np.ndarray, np.ndarray]],
    dim: int,
    cols: int,
    *,
    ctx: Optional[ExecContext] = None,
    report=None,
) -> np.ndarray:
    """Reduce shard ``(rows, block)`` partials into a full ``(dim, cols)``.

    Deterministic pairwise tree in shard order: each round merges
    adjacent pairs (left block scattered first, right added second, onto
    the union row set), an odd tail carries. The summation order depends
    only on the shard layout, so every backend running the same shards
    produces a bitwise-identical result. Cross-shard sums are reordered
    relative to the unchunked kernel, so agreement with it is allclose,
    not bitwise.

    Each merge emits a ``parallel.reduce.exchange`` event (matching
    :func:`merge_schedule` record-for-record). Every union block is
    declared against the context budget and held until a later round
    merges it away or it is scattered into the output, so the accounted
    peak covers every block alive at once. ``report`` (a
    ``ParallelRunReport``) gets the merge wall time added to
    ``reduce_seconds``.
    """
    ctx = resolve_context(ctx)
    collector = ctx.collector
    tick = time.perf_counter()
    items: List[Tuple[np.ndarray, np.ndarray]] = [
        (np.asarray(rows), block) for rows, block in partials
    ]
    # Accounted bytes of each surviving item: 0 for the caller's input
    # partials (accounted by the caller), the union size for merged ones.
    held = [0] * len(items)
    live = 0  # requested and not yet released
    try:
        for rnd, pairs in enumerate(_pairings(len(items))):
            nxt: List[Tuple[np.ndarray, np.ndarray]] = []
            nxt_held: List[int] = []
            for left, right in pairs:
                rows_l, block_l = items[left]
                rows_r, block_r = items[right]
                union = np.union1d(rows_l, rows_r)
                nbytes = union.shape[0] * int(cols) * 8
                ctx.request_bytes(nbytes, "shard merge block")
                live += nbytes
                merged = np.zeros((union.shape[0], cols), dtype=np.float64)
                merged[np.searchsorted(union, rows_l)] = block_l
                merged[np.searchsorted(union, rows_r)] += block_r
                freed = held[left] + held[right]  # both merged away
                if freed:
                    ctx.release_bytes(freed, "shard merge block")
                    live -= freed
                if collector is not None:
                    _trace.event(
                        "parallel.reduce.exchange",
                        collector=collector,
                        round=rnd,
                        src=right,
                        dst=left,
                        rows=int(rows_r.shape[0]),
                        bytes=int(rows_r.shape[0] * (int(cols) * 8 + 8)),
                    )
                nxt.append((union, merged))
                nxt_held.append(nbytes)
            if len(items) % 2:
                nxt.append(items[-1])
                nxt_held.append(held[-1])
            items, held = nxt, nxt_held
        out = np.zeros((dim, cols), dtype=np.float64)
        if items:
            rows, block = items[0]
            out[rows] = block
    finally:
        if live:
            ctx.release_bytes(live, "shard merge block")
    if report is not None:
        report.reduce_seconds += time.perf_counter() - tick
    return out
