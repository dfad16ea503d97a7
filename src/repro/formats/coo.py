"""General (non-symmetric) COO sparse tensor.

The substrate of the general-format baselines: SPLATT's CSF is built from a
COO tensor holding *all* permutations of the symmetric non-zeros. Stores an
``(nnz, order)`` coordinate matrix plus values; no symmetry is assumed or
exploited.
"""

from __future__ import annotations

import numpy as np

from ..runtime.context import current_context
from ..symmetry.combinatorics import dense_size

__all__ = ["COOTensor"]


class COOTensor:
    """Order-``N`` hypercubical sparse tensor in coordinate form."""

    def __init__(
        self,
        order: int,
        dim: int,
        indices: np.ndarray,
        values: np.ndarray,
        *,
        assume_unique: bool = False,
    ):
        if order < 1 or dim < 0:
            raise ValueError("invalid shape parameters")
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.ndim != 2 or indices.shape[1] != order:
            raise ValueError(f"indices must be (nnz, {order})")
        if values.shape != (indices.shape[0],):
            raise ValueError("values length must match indices rows")
        if indices.size and (indices.min() < 0 or indices.max() >= dim):
            raise ValueError("coordinate out of range [0, dim)")
        if not assume_unique and indices.shape[0]:
            uniq = np.unique(indices, axis=0)
            if uniq.shape[0] != indices.shape[0]:
                raise ValueError("duplicate coordinates in COO input")
        self.order = order
        self.dim = dim
        self.indices = indices
        self.values = values

    @property
    def nnz(self) -> int:
        return self.indices.shape[0]

    def sort_by_mode_order(self, mode_order: tuple[int, ...] | None = None) -> "COOTensor":
        """Return a copy with rows lex-sorted by the given mode permutation.

        CSF construction sorts by the chosen mode ordering (root mode
        first); default is the natural order ``(0, 1, ..., N-1)``.
        """
        if mode_order is None:
            mode_order = tuple(range(self.order))
        if sorted(mode_order) != list(range(self.order)):
            raise ValueError("mode_order must be a permutation of modes")
        cols = self.indices[:, list(mode_order)]
        perm = np.lexsort(cols.T[::-1])
        return COOTensor(
            self.order,
            self.dim,
            self.indices[perm],
            self.values[perm],
            assume_unique=True,
        )

    def to_dense(self) -> np.ndarray:
        """Full dense ndarray (budget-accounted)."""
        current_context().request_bytes(
            dense_size(self.order, self.dim) * 8, "dense tensor"
        )
        out = np.zeros((self.dim,) * self.order, dtype=np.float64)
        out[tuple(self.indices.T)] = self.values
        return out

    def norm_squared(self) -> float:
        return float(np.sum(self.values**2))

    @property
    def nbytes(self) -> int:
        return self.indices.nbytes + self.values.nbytes

    def __repr__(self) -> str:
        return f"COOTensor(order={self.order}, dim={self.dim}, nnz={self.nnz})"
