"""Vectorized segment reductions used by the lattice kernels.

Every sum the S³TTMc engines take goes through :func:`sum_runs`, which
adds whole ``(n, S)`` runs strictly left to right. A lattice node's
``d`` recurrence terms are summed that way as ``d`` degree-major runs.
The engines accumulate top-level contributions into output rows
with :func:`group_rows` + :func:`fold_rows` (or :func:`add_rows_in_order`,
which combines them): every output row is summed strictly left to right,
``((out[r] + c_1) + c_2) + ...``, in the order the contributions arrive.
Splitting the sequence anywhere and accumulating the pieces one after
another therefore gives bitwise the same rows, which is what keeps the
compiled and generic engines equal whatever their chunk or block sizes.
(``np.add.reduceat`` along axis 0 does not sum left to right, so a
partial sum carried from piece to piece through it would not be.)
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "segment_sum_by_ptr",
    "scatter_add_rows",
    "RowGroups",
    "group_rows",
    "sum_runs",
    "fold_rows",
    "add_rows_in_order",
    "stable_argsort",
]


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative integer keys.

    Sorts ``key * n + position`` values instead — one plain sort of
    distinct values, several times faster than a stable argsort — unless
    that packing could overflow ``int64``.
    """
    n = keys.shape[0]
    if n == 0 or int(keys.max()) >= (1 << 62) // n:
        return np.argsort(keys, kind="stable")
    return np.sort(keys * n + np.arange(n, dtype=np.int64)) % n


def segment_sum_by_ptr(contrib: np.ndarray, node_ptr: np.ndarray) -> np.ndarray:
    """Sum contiguous row segments of ``contrib``.

    ``node_ptr`` is a ``(n_nodes+1,)`` CSR offset array over the rows of
    ``contrib``; returns ``(n_nodes, contrib.shape[1])``. Empty segments
    (possible only for degenerate inputs) yield zero rows.
    """
    n_nodes = node_ptr.shape[0] - 1
    if n_nodes == 0:
        return np.zeros((0,) + contrib.shape[1:], dtype=contrib.dtype)
    starts = node_ptr[:-1]
    empty = node_ptr[:-1] == node_ptr[1:]
    if not empty.any():
        return np.add.reduceat(contrib, starts, axis=0)
    # reduceat misbehaves on empty segments (it reduces the *next* slice);
    # compute on non-empty segments and fill zeros elsewhere.
    out = np.zeros((n_nodes,) + contrib.shape[1:], dtype=contrib.dtype)
    nz = ~empty
    out[nz] = np.add.reduceat(contrib, starts[nz], axis=0)
    return out


def scatter_add_rows(out: np.ndarray, rows: np.ndarray, contrib: np.ndarray) -> None:
    """``out[rows[e], :] += contrib[e, :]`` with duplicate rows allowed.

    Sort-and-reduce formulation: orders contributions by target row, sums
    runs with ``reduceat``, then does one bulk indexed add — much faster
    than ``np.add.at`` for wide rows.
    """
    if rows.shape[0] == 0:
        return
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    starts = np.ones(sorted_rows.shape[0], dtype=bool)
    starts[1:] = sorted_rows[1:] != sorted_rows[:-1]
    start_pos = np.flatnonzero(starts)
    summed = np.add.reduceat(contrib[order], start_pos, axis=0)
    out[sorted_rows[start_pos]] += summed


class RowGroups(NamedTuple):
    """Pattern-only layout for folding contributions into rows, per piece.

    Within each piece, the distinct target rows (*heads*) are grouped by
    how many contributions ``m`` they receive there, ``m`` ascending and
    rows ascending within a group. A group of ``g`` heads owns ``1 + m``
    runs of ``g`` consecutive *slots*: the rows' current values, then
    each row's first contribution, and so on in sequence order — so the
    runs are summed one after another as whole ``(g, S)`` blocks. Pieces
    follow one another in the slot and head arrays.

    Attributes
    ----------
    slots:
        ``(n + n_heads,)`` source of each slot: ``e < n`` is contribution
        ``e``; ``n + k`` is head ``k``.
    heads:
        ``(n_heads,)`` target row of each head.
    head_ptr:
        ``(n_pieces + 1,)`` head offsets per piece. Piece ``p``'s slots
        start at ``bounds[p] + head_ptr[p]``.
    groups:
        Per piece, a tuple of ``(m, g, slot_offset, head_offset)`` — ``g``
        heads of multiplicity ``m`` — with offsets relative to the piece's
        first slot and first head.
    """

    slots: np.ndarray
    heads: np.ndarray
    head_ptr: np.ndarray
    groups: Tuple[tuple, ...]


def group_rows(rows: np.ndarray, bounds: Optional[np.ndarray] = None) -> RowGroups:
    """Group a contribution sequence's target rows for :func:`fold_rows`.

    ``rows[e]`` is contribution ``e``'s output row; ``bounds`` (default
    ``[0, n]``) cuts the sequence into pieces that are folded one after
    another. Depends on the rows only, so it can be built once per
    sparsity pattern.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[0]
    if bounds is None:
        bounds = np.array([0, n], dtype=np.int64)
    bounds = np.asarray(bounds, dtype=np.int64)
    n_pieces = bounds.shape[0] - 1
    if n == 0:
        return RowGroups(
            np.zeros(0, np.int64),
            np.zeros(0, np.int64),
            np.zeros(n_pieces + 1, np.int64),
            ((),) * n_pieces,
        )
    piece = np.repeat(np.arange(n_pieces, dtype=np.int64), np.diff(bounds))
    # Stable sort by (piece, row): each head's contributions in sequence order.
    key = piece * (int(rows.max()) + 1) + rows
    order = stable_argsort(key)
    skey = key[order]
    first = np.ones(n, dtype=bool)
    first[1:] = skey[1:] != skey[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, n))
    hpiece = piece[order[starts]]
    # Within each piece, heads by multiplicity (stable: rows stay ascending).
    gkey = hpiece * (n + 1) + counts
    horder = stable_argsort(gkey)
    gkey, counts, starts = gkey[horder], counts[horder], starts[horder]
    hpiece = hpiece[horder]
    heads = rows[order[starts]]
    n_heads = heads.shape[0]
    head_ptr = np.searchsorted(hpiece, np.arange(n_pieces + 1, dtype=np.int64))

    gfirst = np.ones(n_heads, dtype=bool)
    gfirst[1:] = gkey[1:] != gkey[:-1]
    gs = np.flatnonzero(gfirst)
    gsize = np.diff(np.append(gs, n_heads))
    group_slot = np.zeros(gs.shape[0], dtype=np.int64)
    np.cumsum((gsize * (counts[gs] + 1))[:-1], out=group_slot[1:])
    # Head k, i-th of its group of g: its current value in slot
    # group_slot + i, its j-th contribution in slot group_slot + j*g + i.
    gid = np.repeat(np.arange(gs.shape[0], dtype=np.int64), gsize)
    i = np.arange(n_heads, dtype=np.int64) - gs[gid]
    head_slot = group_slot[gid] + i
    slots = np.empty(n + n_heads, dtype=np.int64)
    slots[head_slot] = n + np.arange(n_heads, dtype=np.int64)
    owner = np.repeat(np.arange(n_heads, dtype=np.int64), counts)
    within = np.arange(n, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    slots[head_slot[owner] + (1 + within) * gsize[gid[owner]]] = order[
        starts[owner] + within
    ]

    slot0 = bounds[:-1] + head_ptr[:-1]
    groups: list = [[] for _ in range(n_pieces)]
    for p, m, g, s, h in zip(
        hpiece[gs].tolist(),
        counts[gs].tolist(),
        gsize.tolist(),
        (group_slot - slot0[hpiece[gs]]).tolist(),
        (gs - head_ptr[hpiece[gs]]).tolist(),
    ):
        groups[p].append((m, g, s, h))
    return RowGroups(slots, heads, head_ptr, tuple(tuple(g) for g in groups))


def sum_runs(runs: np.ndarray, dest: np.ndarray) -> None:
    """``dest = ((runs[0] + runs[1]) + runs[2]) + ...``, element by element.

    ``runs`` is a ``(d, n, S)`` array of ``d`` runs of ``(n, S)`` rows and
    ``dest`` an ``(n, S)`` array. ``np.add.reduce`` over the outer axis of
    a C-contiguous block adds its runs one after another, as whole
    blocks; on one single-column row (``n * S == 1``), or on a strided
    view, it may reduce the run axis as its inner loop and sum pairwise
    instead, so those cases add run by run.
    """
    if runs.shape[1] * runs.shape[2] > 1 and runs.flags.c_contiguous:
        np.add.reduce(runs, axis=0, out=dest)
        return
    np.copyto(dest, runs[0])
    for run in runs[1:]:
        dest += run


def fold_rows(slots: np.ndarray, groups: tuple, dest: np.ndarray) -> None:
    """Sum each head's slots of ``slots`` left to right into ``dest``.

    ``slots`` is one piece's filled ``(n_slots, S)`` slot array and
    ``groups`` its :attr:`RowGroups.groups` entry; ``dest[k]`` receives
    head ``k``'s sum: the group's ``(1 + m, g, S)`` block is ``1 + m``
    runs for :func:`sum_runs`.
    """
    width = slots.shape[1]
    for m, g, s, h in groups:
        sum_runs(slots[s : s + (1 + m) * g].reshape(1 + m, g, width), dest[h : h + g])


def add_rows_in_order(out: np.ndarray, rows: np.ndarray, contrib: np.ndarray) -> None:
    """``out[rows[e]] += contrib[e]`` for each ``e`` in turn.

    Each row of ``out`` is summed strictly left to right, so accumulating
    a sequence in any number of consecutive pieces gives the same bits.
    """
    if rows.shape[0] == 0:
        return
    grouped = group_rows(rows)
    source = np.concatenate((contrib, out[grouped.heads]))
    sums = np.empty((grouped.heads.shape[0],) + out.shape[1:], dtype=out.dtype)
    fold_rows(source[grouped.slots], grouped.groups[0], sums)
    out[grouped.heads] = sums
