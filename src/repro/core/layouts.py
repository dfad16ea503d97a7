"""Intermediate-tensor layouts: compact (SymProp) vs full (CSS baseline).

Both the SymProp kernel and the CSS baseline run the *same* sub-multiset
lattice recurrence; the only difference — the paper's entire contribution
for S³TTMc — is how the intermediate symmetric ``K`` tensors are laid out:

* **compact**: only IOU entries, ``S_{l,R}`` per level-``l`` tensor
  (symmetry propagated, Property 1);
* **full**: all ``R**l`` entries (symmetry of the input exploited via the
  IOU non-zero set, but intermediate symmetry ignored — the state of the
  art before SymProp).

A :class:`LevelLayout` abstracts exactly the two gather tables the
recurrence needs (drop-last parent location, last index), so one kernel
implementation serves both variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..symmetry.combinatorics import dense_size
from ..symmetry.tables import get_tables

__all__ = ["LevelLayout", "compact_layout", "full_layout", "layout_for"]


@dataclass(frozen=True)
class LevelLayout:
    """Gather tables of one intermediate level.

    For every storage slot ``s`` of a level-``l`` K tensor,
    ``K_l[s] = Σ_terms U[v, last_index[s]] * K_{l-1}[parent_loc[s]]``.
    """

    level: int
    dim: int
    size: int
    parent_loc: np.ndarray
    last_index: np.ndarray
    kind: str


def compact_layout(level: int, dim: int) -> LevelLayout:
    """IOU lex layout — ``S_{l,R}`` entries (SymProp)."""
    tables = get_tables(level, dim)
    return LevelLayout(
        level=level,
        dim=dim,
        size=tables.size,
        parent_loc=tables.parent_loc,
        last_index=tables.last_index,
        kind="compact",
    )


def full_layout(level: int, dim: int) -> LevelLayout:
    """Row-major full layout — ``R**l`` entries (CSS baseline).

    ``lin(j₁…j_l) = lin(j₁…j_{l-1})·R + j_l``, so the parent location is
    ``slot // R`` and the last index ``slot % R``.
    """
    size = dense_size(level, dim)
    slots = np.arange(size, dtype=np.int64)
    return LevelLayout(
        level=level,
        dim=dim,
        size=size,
        parent_loc=slots // dim if dim else slots,
        last_index=slots % dim if dim else slots,
        kind="full",
    )


def cp_layout(level: int, dim: int) -> LevelLayout:
    """Elementwise (CP/Khatri-Rao) layout — ``R`` entries at every level.

    For CP-style chains the per-level "outer product" is an elementwise
    product in the shared rank index: ``K_m[r] = Σ_v U[v,r]·K_{m−v}[r]``,
    so both gather tables are the identity. This is symmetry propagation
    applied to the MTTKRP kernel — the extension the paper's conclusion
    proposes for "other tensor decomposition methods".
    """
    slots = np.arange(dim, dtype=np.int64)
    return LevelLayout(
        level=level,
        dim=dim,
        size=dim,
        parent_loc=slots,
        last_index=slots,
        kind="cp",
    )


def layout_for(kind: str, level: int, dim: int) -> LevelLayout:
    """Dispatch on layout kind: ``"compact"``, ``"full"`` or ``"cp"``."""
    if kind == "compact":
        return compact_layout(level, dim)
    if kind == "full":
        return full_layout(level, dim)
    if kind == "cp":
        return cp_layout(level, dim)
    raise ValueError(f"unknown intermediate layout {kind!r}")
