"""Shared prefix-trie (CSF-style) compression of sorted index matrices.

Both the CSS format (trie over IOU non-zeros) and the CSF format (trie over
expanded non-zeros) compress a lexicographically sorted ``(n, N)`` index
matrix into per-level node arrays: level ``d`` holds one node per distinct
length-``d`` prefix, with a pointer range into level ``d+1``. This module
builds that structure once, vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = ["PrefixTrie", "build_trie"]


@dataclass(frozen=True)
class PrefixTrie:
    """Compressed trie over a lex-sorted index matrix.

    Attributes
    ----------
    order:
        Number of levels ``N``.
    values:
        ``values[d]`` (0-based level) is the index value of each node at
        depth ``d+1`` — one entry per distinct length-``d+1`` prefix.
    child_ptr:
        ``child_ptr[d]`` has ``len(values[d]) + 1`` entries; node ``k`` at
        depth ``d+1`` owns children ``child_ptr[d][k]:child_ptr[d][k+1]`` at
        depth ``d+2``. For the last level the "children" are rows of the
        original matrix (leaf entries).
    n_entries:
        Number of rows compressed.
    """

    order: int
    values: List[np.ndarray]
    child_ptr: List[np.ndarray]
    n_entries: int

    @property
    def node_counts(self) -> List[int]:
        """Number of trie nodes per level (prefix-compression statistic)."""
        return [int(v.shape[0]) for v in self.values]

    def storage_bytes(self, index_itemsize: int = 8) -> int:
        """Bytes of index structure (values + pointers), excluding leaf data."""
        total = 0
        for vals, ptr in zip(self.values, self.child_ptr):
            total += vals.nbytes if vals.itemsize == index_itemsize else vals.shape[0] * index_itemsize
            total += ptr.nbytes
        return total


def build_trie(indices: np.ndarray) -> PrefixTrie:
    """Build a :class:`PrefixTrie` from a lex-sorted ``(n, order)`` matrix.

    Rows must already be sorted lexicographically (duplicates allowed in
    principle but the sparse formats never produce them).
    """
    indices = np.asarray(indices)
    if indices.ndim != 2:
        raise ValueError("indices must be (n, order)")
    n, order = indices.shape
    if n > 1:
        prev = indices[:-1]
        nxt = indices[1:]
        # Verify lex order cheaply: first differing column must increase.
        diff = prev != nxt
        first_diff = np.where(diff.any(axis=1), diff.argmax(axis=1), order - 1)
        rows = np.arange(n - 1)
        bad = nxt[rows, first_diff] < prev[rows, first_diff]
        if bad.any():
            raise ValueError("indices must be lexicographically sorted")

    values: List[np.ndarray] = []
    child_ptr: List[np.ndarray] = []
    # new_prefix marks rows starting a new length-(d+1) prefix.
    new_prefix = np.ones(n, dtype=bool)
    prev_starts = None
    for d in range(order):
        if n:
            if d == 0:
                changed = np.ones(n, dtype=bool)
                changed[1:] = indices[1:, 0] != indices[:-1, 0]
            else:
                changed = new_prefix.copy()
                changed[1:] |= indices[1:, d] != indices[:-1, d]
            new_prefix = changed
            starts = np.flatnonzero(new_prefix)
        else:
            starts = np.zeros(0, dtype=np.int64)
        values.append(indices[starts, d].copy() if n else np.zeros(0, np.int64))
        if prev_starts is not None:
            # Parent k at level d-1 owns child nodes whose start row falls in
            # [prev_starts[k], prev_starts[k+1]).
            bounds = np.concatenate([prev_starts, [n]])
            ptr = np.searchsorted(starts, bounds)
            child_ptr.append(ptr.astype(np.int64))
        prev_starts = starts
    # Last level: children are leaf rows.
    if prev_starts is not None:
        bounds = np.concatenate([prev_starts, [n]])
        child_ptr.append(bounds.astype(np.int64))
    else:
        child_ptr.append(np.zeros(1, dtype=np.int64))
    # child_ptr list currently has `order` arrays: for levels 1..order.
    # Prepend nothing: align child_ptr[d] with values[d].
    return PrefixTrie(order=order, values=values, child_ptr=child_ptr, n_entries=n)
