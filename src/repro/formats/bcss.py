"""Storage model of BCSS, Blocked Compact Symmetric Storage (Schatz et al. [15]).

An alternative dense symmetric layout discussed in the paper's related
work: partition every mode into blocks of size ``b`` and keep only blocks
whose *block-index* tuple is non-decreasing; each kept block is stored as
a full dense ``b^N`` brick (boundary blocks zero-padded). Only its
closed-form entry count is needed here. Block-level
symmetry removes most redundancy while keeping dense BLAS-friendly bricks
— at the cost of (a) within-block redundancy for diagonal blocks and
(b) padding, which is why "this approach could consume more storage space
for some high-order tensors" (Section VII). The storage-ratio ablation
quantifies exactly that trade-off against the entrywise compact layout.
"""

from __future__ import annotations

from ..symmetry.combinatorics import sym_storage_size

__all__ = ["bcss_storage_entries"]


def bcss_storage_entries(order: int, dim: int, block: int) -> int:
    """Stored entries: one ``block**order`` brick per IOU block tuple."""
    if block < 1:
        raise ValueError("block size must be >= 1")
    n_blocks = -(-dim // block)  # ceil
    return sym_storage_size(order, n_blocks) * block**order
