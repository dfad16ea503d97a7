"""Sub-multiset lattice: the memoization structure of S³TTMc.

For each IOU non-zero ``i`` (a sorted multiset of ``N`` indices), S³TTMc
needs the symmetric tensors ``K_{i∖k}`` for every distinct ``k ∈ i``; those
are built bottom-up from ``K``'s of smaller sub-multisets (Eq. 7). The set
of *all* sub-multisets of all non-zeros, organized by size ``l``, forms a
lattice; a node at level ``l`` is computed from its level-``l-1`` children
via one recurrence term per distinct value — which is simultaneously the
set of its deletion edges.

Memoization scope:

* ``"global"`` — nodes are deduplicated across non-zeros (the CSS tree's
  between-non-zeros sharing, generalized from prefixes to arbitrary
  sub-multisets);
* ``"nonzero"`` — nodes are deduplicated only within each owning non-zero
  (UCOO-style, the worst case the paper's complexity formulas describe:
  exactly ``C(N,l)`` nodes per level for an all-distinct non-zero).

Edges of each level are stored *degree-grouped*: nodes with the same
number of recurrence terms ``d`` are contiguous, each with its ``d`` edges
in a row (node-major), so the evaluation engines can cut a group into node
chunks of equal degree and sum each node's terms left to right as ``d``
degree-major runs (:func:`repro.core._segment.sum_runs`). (A node's
degree is its count of distinct index values, at most ``min(l, order)``.)

The lattice is purely structural — it knows nothing about ranks, layouts,
or values — so SymProp and the CSS baseline share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..runtime.context import ExecContext, resolve_context
from ._segment import stable_argsort

__all__ = ["DegreeGroup", "LatticeLevel", "Lattice", "build_lattice", "unique_rows"]


def unique_rows(a: np.ndarray):
    """Deduplicate rows of a 2-D integer array.

    Returns ``(uniq, inverse)`` with ``uniq[inverse] == a`` row-wise. Uses a
    contiguous byte view (one void element per row), which is considerably
    faster than ``np.unique(axis=0)``; the resulting row order is
    deterministic but byte-lexicographic, which no consumer relies on.
    """
    if a.ndim != 2:
        raise ValueError("expected 2-D array")
    n, w = a.shape
    if n == 0 or w == 0:
        empty_uniq = a[:1].copy() if (n and w == 0) else a.copy()
        return empty_uniq, np.zeros(n, dtype=np.int64)
    contig = np.ascontiguousarray(a)
    view = contig.view(np.dtype((np.void, contig.dtype.itemsize * w))).ravel()
    _, first, inverse = np.unique(view, return_index=True, return_inverse=True)
    return contig[first], inverse.astype(np.int64)


@dataclass(frozen=True)
class DegreeGroup:
    """Contiguous run of equal-degree nodes within one level's edge arrays.

    The group's nodes are ``nodes`` (original node ids, ``n`` of them) and
    its edges occupy ``edge_offset : edge_offset + n * degree``, laid out
    node-major (node ``nodes[k]`` owns edges
    ``edge_offset + k*degree : edge_offset + (k+1)*degree``).
    """

    degree: int
    nodes: np.ndarray
    edge_offset: int

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_edges(self) -> int:
        return self.n_nodes * self.degree


@dataclass(frozen=True)
class LatticeLevel:
    """Edges connecting level-``l`` nodes to their level-``l-1`` children.

    Attributes
    ----------
    level:
        ``l`` — the size of the node multisets on the parent side.
    n_nodes:
        Number of (deduplicated) level-``l`` nodes.
    value:
        ``(n_edges,)`` deleted index value per edge (the ``U`` row of the
        recurrence term).
    child:
        ``(n_edges,)`` level-``l-1`` node ids.
    node:
        ``(n_edges,)`` parent node ids — kept only for the top level
        (where parents are non-zeros and scale the scatter); ``None``
        elsewhere.
    groups:
        Degree-grouped edge layout (see :class:`DegreeGroup`).
    """

    level: int
    n_nodes: int
    value: np.ndarray
    child: np.ndarray
    node: Optional[np.ndarray]
    groups: Tuple[DegreeGroup, ...]

    @property
    def n_edges(self) -> int:
        return self.value.shape[0]


@dataclass(frozen=True)
class Lattice:
    """Full lattice for one batch of IOU non-zeros.

    ``levels[l]`` (``2 <= l <= N``) holds the edges computing level ``l``
    from level ``l-1``. ``leaf_values`` are the index values of the level-1
    nodes (whose ``K`` tensors are rows of ``U``). Level-``N`` nodes are the
    non-zeros themselves, in input order.
    """

    order: int
    n_nonzeros: int
    levels: Dict[int, LatticeLevel]
    leaf_values: np.ndarray
    node_keys: Optional[Dict[int, np.ndarray]]
    memoize: str

    def level_nodes(self, level: int) -> int:
        if level == 1:
            return self.leaf_values.shape[0]
        return self.levels[level].n_nodes

    @property
    def total_edges(self) -> int:
        return sum(lv.n_edges for lv in self.levels.values())

    def grouped_rank(self, level: int) -> np.ndarray:
        """Position of each level-``level`` node in degree-grouped order.

        The compiled kernel renumbers nodes this way so every degree
        group is a contiguous row range; level-1 nodes keep their ids.
        """
        n_nodes = self.level_nodes(level)
        if level == 1:
            return np.arange(n_nodes, dtype=np.int64)
        groups = self.levels[level].groups
        perm = (
            np.concatenate([g.nodes for g in groups])
            if groups
            else np.empty(0, dtype=np.int64)
        )
        rank = np.empty(n_nodes, dtype=np.int64)
        rank[perm] = np.arange(n_nodes, dtype=np.int64)
        return rank

    def top_edge_order(self) -> np.ndarray:
        """Top-level edge permutation in S³TTMc's summation order.

        Edges sorted (stably) by their level-``N-1`` node's
        :meth:`grouped_rank`: every output row receives its contributions
        in this order, each added to the running row in turn.
        """
        top = self.levels[self.order]
        rank = self.grouped_rank(self.order - 1)
        return stable_argsort(rank[top.child])


def _delete_one_per_run(current: np.ndarray):
    """All single-element deletions up to multiset equality.

    For each row of the sorted matrix ``current`` ``(M, w)``, deleting any
    element of a run of equal values yields the same sorted child; we delete
    the run *ends*. Returns ``(parent_row, deleted_value, child_tuples,
    counts)`` in node-major order; ``counts[m]`` is row ``m``'s number of
    distinct values (its degree).
    """
    M, w = current.shape
    run_end = np.ones((M, w), dtype=bool)
    if w > 1:
        run_end[:, :-1] = current[:, 1:] != current[:, :-1]
    parent_row, pos = np.nonzero(run_end)
    n_edges = parent_row.shape[0]
    deleted = current[parent_row, pos]
    if w > 1:
        keep = np.arange(w)[None, :] != pos[:, None]
        child = current[parent_row][keep].reshape(n_edges, w - 1)
    else:
        child = np.zeros((n_edges, 0), dtype=current.dtype)
    counts = run_end.sum(axis=1)
    return parent_row, deleted, child, counts


def _degree_grouped_order(counts: np.ndarray):
    """Edge permutation and groups for degree-grouped layout.

    Given per-node edge counts (node-major edges), returns
    ``(edge_perm, group_descriptors)`` where ``edge_perm`` reorders edges so
    that equal-degree nodes are contiguous, and each descriptor is
    ``(degree, node_ids, edge_offset)``.
    """
    n_nodes = counts.shape[0]
    node_ptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=node_ptr[1:])
    node_order = np.argsort(counts, kind="stable")
    lengths = counts[node_order]
    starts = node_ptr[node_order]
    total = int(node_ptr[-1])
    out_offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(lengths, out=out_offsets[1:])
    edge_perm = (
        np.arange(total, dtype=np.int64)
        - np.repeat(out_offsets[:-1], lengths)
        + np.repeat(starts, lengths)
    )
    groups = []
    boundary = np.ones(n_nodes, dtype=bool)
    if n_nodes > 1:
        boundary[1:] = lengths[1:] != lengths[:-1]
    group_starts = np.flatnonzero(boundary)
    group_ends = np.concatenate([group_starts[1:], [n_nodes]])
    for gs, ge in zip(group_starts, group_ends):
        degree = int(lengths[gs])
        groups.append(
            DegreeGroup(
                degree=degree,
                nodes=node_order[gs:ge].copy(),
                edge_offset=int(out_offsets[gs]),
            )
        )
    return edge_perm, tuple(groups)


def build_lattice(
    indices: np.ndarray,
    memoize: str = "global",
    *,
    keep_keys: bool = False,
    ctx: Optional[ExecContext] = None,
) -> Lattice:
    """Build the sub-multiset lattice for a batch of IOU non-zeros.

    Parameters
    ----------
    indices:
        ``(unnz, order)`` non-decreasing rows.
    memoize:
        ``"global"`` or ``"nonzero"`` (see module docstring).
    keep_keys:
        Retain the per-level node index tuples (``node_keys``) — useful for
        inspection and tests, costly on deep lattices.
    ctx:
        Context whose budget each level's deduplication transients are
        declared against while that level is built.
    """
    if memoize not in ("global", "nonzero"):
        raise ValueError(f"unknown memoize scope {memoize!r}")
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 2:
        raise ValueError("indices must be (unnz, order)")
    unnz, order = indices.shape
    if order < 2:
        raise ValueError("lattice requires order >= 2")
    ctx = resolve_context(ctx)

    levels: Dict[int, LatticeLevel] = {}
    node_keys: Dict[int, np.ndarray] = {order: indices} if keep_keys else {}
    current = indices
    # In "nonzero" scope each node carries its owning non-zero id; dedup keys
    # include it, so sharing never crosses non-zeros.
    owner = np.arange(unnz, dtype=np.int64)
    for level in range(order, 1, -1):
        parent_row, deleted, child, counts = _delete_one_per_run(current)
        nbytes, label = child.nbytes + 3 * parent_row.nbytes, f"lattice level {level}"
        ctx.request_bytes(nbytes, label)
        try:
            if level - 1 == 1 or memoize == "global":
                key = child
            else:
                key = np.concatenate([owner[parent_row, None], child], axis=1)
            uniq, inverse = unique_rows(key)
            edge_perm, groups = _degree_grouped_order(counts)
            levels[level] = LatticeLevel(
                level=level,
                n_nodes=current.shape[0],
                value=deleted[edge_perm],
                child=inverse[edge_perm],
                node=parent_row[edge_perm] if level == order else None,
                groups=groups,
            )
        finally:
            ctx.release_bytes(nbytes, label)
        if memoize == "nonzero" and level - 1 > 1:
            owner = uniq[:, 0].copy()
            uniq = uniq[:, 1:]
        current = uniq
        if keep_keys:
            node_keys[level - 1] = current
    leaf_values = current[:, 0].copy()
    return Lattice(
        order=order,
        n_nonzeros=unnz,
        levels=levels,
        leaf_values=leaf_values,
        node_keys=node_keys if keep_keys else None,
        memoize=memoize,
    )
