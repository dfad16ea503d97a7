"""Cached per-(order, dim) index tables for the SymProp kernels.

The symmetric outer-product kernels need, at every lattice level ``l``, the
same three arrays: the IOU enumeration, the drop-last parent locations, and
the last indices (plus, at the top level, the permutation-multiplicity
vector ``p`` of Property 3). Building them costs ``O(S_{l,R} * l)`` — cheap,
but worth doing exactly once per Tucker decomposition. This module caches
them per ``(order, dim)`` pair, mirroring how the paper's C++ implementation
instantiates one template per level at compile time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .combinatorics import permutation_counts_array, sym_storage_size
from .iou import full_linear_index, iou_layout

__all__ = ["IndexTables", "get_tables"]


@dataclass(frozen=True)
class IndexTables:
    """Immutable index tables of one compact symmetric layout.

    Attributes
    ----------
    order, dim:
        Tensor order ``l`` and dimension size ``R`` of the layout.
    size:
        ``S_{l,R}`` — number of IOU entries.
    indices:
        ``(size, order)`` lex-ordered IOU tuples.
    parent_loc:
        ``(size,)`` — lex position of each tuple with its last coordinate
        dropped, in the order-``l-1`` layout (``order >= 1``).
    last_index:
        ``(size,)`` — last coordinate of each tuple.
    multiplicity:
        ``(size,)`` int64 — number of distinct orderings of each tuple; the
        diagonal of ``M = EᵀE`` (Property 3), a.k.a. the vector ``p``.
    """

    order: int
    dim: int
    size: int
    indices: np.ndarray
    parent_loc: np.ndarray
    last_index: np.ndarray
    multiplicity: np.ndarray
    _expansion_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def expansion_locs(self) -> np.ndarray:
        """Map full row-major linear index → compact IOU location.

        Returns a ``(dim**order,)`` int64 array ``locs`` such that for any
        full index tuple ``j``, ``compact[locs[lin(j)]]`` is the entry value
        — i.e. the column index of the 1 in each row of the expansion matrix
        ``E`` of Property 2. Materializes ``dim**order`` integers; callers
        must keep that within their memory budget.
        """
        cached = self._expansion_cache.get("locs")
        if cached is not None:
            return cached
        full = dim_grid(self.order, self.dim)
        sorted_full = np.sort(full, axis=1)
        # Rank each sorted tuple by searching the lex-ordered IOU table via
        # its own linearization (monotone in lex order).
        keys = full_linear_index(self.indices, self.dim)
        query = full_linear_index(sorted_full, self.dim)
        locs = np.searchsorted(keys, query)
        self._expansion_cache["locs"] = locs
        return locs


def dim_grid(order: int, dim: int) -> np.ndarray:
    """All full index tuples of shape ``(dim**order, order)`` in row-major order."""
    if order == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*([np.arange(dim, dtype=np.int64)] * order), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


_CACHE: Dict[Tuple[int, int], IndexTables] = {}
_CACHE_LOCK = threading.Lock()


def get_tables(order: int, dim: int) -> IndexTables:
    """Return (building and caching if needed) the tables for ``(order, dim)``."""
    key = (order, dim)
    tables = _CACHE.get(key)
    if tables is not None:
        return tables
    with _CACHE_LOCK:
        tables = _CACHE.get(key)
        if tables is not None:
            return tables
        indices, parent_loc, last_index = iou_layout(order, dim)
        multiplicity = permutation_counts_array(indices)
        tables = IndexTables(
            order=order,
            dim=dim,
            size=sym_storage_size(order, dim),
            indices=indices,
            parent_loc=parent_loc,
            last_index=last_index,
            multiplicity=multiplicity,
        )
        _CACHE[key] = tables
        return tables
