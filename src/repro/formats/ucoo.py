"""UCOO: coordinate sparse symmetric tensor storing IOU non-zeros only.

The canonical input format of the library (every kernel accepts it; CSS and
CSF are derived from it). A UCOO tensor is an order-``N`` hypercubical
symmetric tensor of dimension ``I`` given by ``unnz`` index-ordered-unique
coordinates and values; the full non-zero set is the union of all distinct
permutations of each row.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..runtime.context import current_context
from ..symmetry.combinatorics import dense_size, permutation_counts_array
from ..symmetry.permutations import canonicalize, count_expanded, expand_iou

__all__ = ["SparseSymmetricTensor"]


class SparseSymmetricTensor:
    """Sparse symmetric tensor in UCOO (IOU-only COO) form.

    Parameters
    ----------
    order:
        Tensor order ``N``.
    dim:
        Dimension size ``I`` (all modes equal).
    indices:
        ``(unnz, order)`` integer coordinates. Rows may be unsorted and in
        any order; the constructor canonicalizes (sorts each row, lex-sorts
        rows) unless ``assume_canonical`` is set.
    values:
        ``(unnz,)`` float values.
    combine:
        Duplicate-coordinate policy forwarded to
        :func:`repro.symmetry.permutations.canonicalize`.
    """

    def __init__(
        self,
        order: int,
        dim: int,
        indices: np.ndarray,
        values: np.ndarray,
        *,
        combine: str = "error",
        assume_canonical: bool = False,
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        if dim < 0:
            raise ValueError("dim must be >= 0")
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.ndim != 2 or indices.shape[1] != order:
            raise ValueError(f"indices must be (unnz, {order}), got {indices.shape}")
        if values.shape != (indices.shape[0],):
            raise ValueError("values length must match indices rows")
        if indices.size and (indices.min() < 0 or indices.max() >= dim):
            raise ValueError("coordinate out of range [0, dim)")
        if not assume_canonical:
            indices, values = canonicalize(indices, values, combine=combine)
        self.order = order
        self.dim = dim
        self.indices = indices
        self.values = values

    # -- basic statistics ---------------------------------------------------
    @property
    def unnz(self) -> int:
        """Number of IOU non-zeros."""
        return self.indices.shape[0]

    @property
    def nnz(self) -> int:
        """Number of non-zeros of the expanded (general-format) tensor."""
        return count_expanded(self.indices)

    def multiplicities(self) -> np.ndarray:
        """Distinct-ordering count per IOU non-zero."""
        return permutation_counts_array(self.indices)

    def density(self) -> float:
        """Fraction of full dense entries that are non-zero."""
        total = dense_size(self.order, self.dim)
        return self.nnz / total if total else 0.0

    def norm_squared(self) -> float:
        """Full Frobenius norm squared (IOU values weighted by multiplicity)."""
        if self.unnz == 0:
            return 0.0
        return float(np.sum(self.multiplicities() * self.values**2))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_squared()))

    # -- conversions ---------------------------------------------------------
    def expand(self):
        """Expand to a general :class:`~repro.formats.coo.COOTensor`.

        The expanded coordinate matrix is the ``N!``-factor blow-up that the
        general-format baselines pay; the allocation is budget-accounted, so
        under a :class:`~repro.runtime.budget.MemoryBudget` this is where
        SPLATT-style pipelines go "OOM" at high order.
        """
        from .coo import COOTensor

        nnz = self.nnz
        ctx = current_context()
        ctx.request_bytes(nnz * self.order * 8 + nnz * 8, "expanded COO")
        try:
            exp_idx, exp_val, _ = expand_iou(self.indices, self.values)
            return COOTensor(
                self.order, self.dim, exp_idx, exp_val, assume_unique=True
            )
        except BaseException:
            ctx.release_bytes(nnz * self.order * 8 + nnz * 8, "expanded COO")
            raise

    def to_dense(self) -> np.ndarray:
        """Full dense ndarray (tiny tensors only; budget-accounted)."""
        current_context().request_bytes(
            dense_size(self.order, self.dim) * 8, "dense tensor"
        )
        out = np.zeros((self.dim,) * self.order, dtype=np.float64)
        exp_idx, exp_val, _ = expand_iou(self.indices, self.values)
        out[tuple(exp_idx.T)] = exp_val
        return out

    def permute_values(self, rng: np.random.Generator) -> "SparseSymmetricTensor":
        """Same sparsity pattern, freshly randomized values (for sweeps)."""
        return SparseSymmetricTensor(
            self.order,
            self.dim,
            self.indices.copy(),
            rng.random(self.unnz),
            assume_canonical=True,
        )

    # -- element access -------------------------------------------------------
    def value_at(self, index: Sequence[int]) -> float:
        """Value at an arbitrary (unsorted) coordinate, 0.0 if absent."""
        key = np.sort(np.asarray(index, dtype=np.int64))
        if key.shape != (self.order,):
            raise IndexError(f"expected {self.order} indices")
        # Binary search in the lex-sorted IOU rows.
        lo, hi = 0, self.unnz
        target = tuple(key)
        while lo < hi:
            mid = (lo + hi) // 2
            row = tuple(self.indices[mid])
            if row < target:
                lo = mid + 1
            else:
                hi = mid
        if lo < self.unnz and tuple(self.indices[lo]) == target:
            return float(self.values[lo])
        return 0.0

    @property
    def nbytes(self) -> int:
        return self.indices.nbytes + self.values.nbytes

    def __repr__(self) -> str:
        return (
            f"SparseSymmetricTensor(order={self.order}, dim={self.dim}, "
            f"unnz={self.unnz})"
        )
