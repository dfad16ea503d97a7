"""BCSS: Blocked Compact Symmetric Storage (Schatz et al. [15]).

An alternative dense symmetric layout discussed in the paper's related
work: partition every mode into blocks of size ``b`` and keep only blocks
whose *block-index* tuple is non-decreasing; each kept block is stored as
a full dense ``b^N`` brick (boundary blocks zero-padded). Block-level
symmetry removes most redundancy while keeping dense BLAS-friendly bricks
— at the cost of (a) within-block redundancy for diagonal blocks and
(b) padding, which is why "this approach could consume more storage space
for some high-order tensors" (Section VII). The storage-ratio ablation
quantifies exactly that trade-off against the entrywise compact layout.
"""

from __future__ import annotations

import numpy as np

from ..symmetry.combinatorics import sym_storage_size
from ..symmetry.iou import enumerate_iou, rank_iou_array
from ..symmetry.tables import dim_grid

__all__ = ["BlockedSymmetricTensor", "bcss_storage_entries"]


def bcss_storage_entries(order: int, dim: int, block: int) -> int:
    """Stored entries: one ``block**order`` brick per IOU block tuple."""
    if block < 1:
        raise ValueError("block size must be >= 1")
    n_blocks = -(-dim // block)  # ceil
    return sym_storage_size(order, n_blocks) * block**order


class BlockedSymmetricTensor:
    """Dense symmetric tensor in BCSS layout.

    Bricks are stored in a ``(n_bricks, block**order)`` array whose rows
    follow the lex IOU enumeration of block tuples.
    """

    def __init__(self, order: int, dim: int, block: int):
        if order < 1 or dim < 0:
            raise ValueError("invalid shape")
        if block < 1:
            raise ValueError("block size must be >= 1")
        self.order = order
        self.dim = dim
        self.block = block
        self.n_blocks = -(-dim // block) if dim else 0
        self.block_tuples = enumerate_iou(order, self.n_blocks)
        self.bricks = np.zeros(
            (self.block_tuples.shape[0], block**order), dtype=np.float64
        )

    # -- construction --------------------------------------------------------
    @classmethod
    def from_full(
        cls, full: np.ndarray, block: int, *, check_symmetry: bool = True
    ) -> "BlockedSymmetricTensor":
        full = np.asarray(full, dtype=np.float64)
        order = full.ndim
        dim = full.shape[0] if order else 0
        if any(s != dim for s in full.shape):
            raise ValueError("tensor must be hypercubical")
        if check_symmetry and order >= 2:
            swapped = np.swapaxes(full, 0, 1)
            if not np.allclose(full, swapped, atol=1e-10):
                raise ValueError("input is not symmetric")
        out = cls(order, dim, block)
        b = block
        for row, tup in enumerate(out.block_tuples):
            brick = np.zeros((b,) * order)
            slices = tuple(
                slice(int(t) * b, min((int(t) + 1) * b, dim)) for t in tup
            )
            extents = tuple(s.stop - s.start for s in slices)
            brick[tuple(slice(0, e) for e in extents)] = full[slices]
            out.bricks[row] = brick.ravel()
        return out

    # -- access ---------------------------------------------------------------
    def __getitem__(self, index) -> float:
        idx = np.asarray(index, dtype=np.int64)
        if idx.shape != (self.order,):
            raise IndexError(f"expected {self.order} indices")
        if idx.min(initial=0) < 0 or idx.max(initial=0) >= self.dim:
            raise IndexError("index out of range")
        block_ids = idx // self.block
        offsets = idx % self.block
        # Sort by block id; co-permute offsets (block-level symmetry only
        # guarantees the sorted-block brick exists; within it, the entry at
        # the co-permuted offsets equals the query by full symmetry).
        perm = np.argsort(block_ids, kind="stable")
        row = rank_iou_array(block_ids[perm][None, :], self.n_blocks)[0]
        lin = 0
        for off in offsets[perm]:
            lin = lin * self.block + int(off)
        return float(self.bricks[row, lin])

    def to_full(self) -> np.ndarray:
        """Expand back to the full ndarray (inverse of :meth:`from_full`)."""
        full = np.zeros((self.dim,) * self.order, dtype=np.float64)
        if self.dim == 0:
            return full
        grid = dim_grid(self.order, self.dim)
        values = np.array([self[tuple(row)] for row in grid])
        return values.reshape((self.dim,) * self.order)

    # -- statistics -------------------------------------------------------------
    @property
    def stored_entries(self) -> int:
        return self.bricks.size

    def __repr__(self) -> str:
        return (
            f"BlockedSymmetricTensor(order={self.order}, dim={self.dim}, "
            f"block={self.block}, bricks={self.bricks.shape[0]})"
        )
