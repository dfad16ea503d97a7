"""Compact dense symmetric tensor: lex-ordered IOU storage (Section II-B).

An order-``N`` symmetric tensor with dimension ``R`` is stored as a flat
``(S_{N,R},)`` array over the lexicographic IOU enumeration — the layout of
[16] that SymProp's intermediate ``K`` tensors use. Provides round-trips to
full arrays, multiplicity-weighted norms, and element access by arbitrary
(unsorted) index.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..runtime.context import current_context
from ..symmetry.combinatorics import dense_size, sym_storage_size
from ..symmetry.expansion import compact_from_full, expand_compact
from ..symmetry.iou import rank_iou_array
from ..symmetry.tables import get_tables

__all__ = ["DenseSymmetricTensor"]


class DenseSymmetricTensor:
    """Dense fully symmetric tensor in compact IOU storage.

    Parameters
    ----------
    order, dim:
        Tensor order ``N`` and dimension size ``R``.
    data:
        Optional ``(S_{N,R},)`` float array in lex IOU order; zeros if
        omitted.
    """

    def __init__(self, order: int, dim: int, data: np.ndarray | None = None):
        if order < 1:
            raise ValueError("order must be >= 1")
        if dim < 0:
            raise ValueError("dim must be >= 0")
        self.order = order
        self.dim = dim
        self.size = sym_storage_size(order, dim)
        if data is None:
            current_context().request_bytes(self.size * 8, "DenseSymmetricTensor.data")
            data = np.zeros(self.size, dtype=np.float64)
        else:
            data = np.asarray(data, dtype=np.float64)
            if data.shape != (self.size,):
                raise ValueError(f"data must have shape ({self.size},), got {data.shape}")
        self.data = data

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_full(cls, full: np.ndarray, *, check_symmetry: bool = True) -> "DenseSymmetricTensor":
        """Compact a full symmetric ndarray (all extents equal).

        With :meth:`to_full`, the tests' bridge between the IOU storage
        and the full array (``tests/test_dense_formats.py``).
        """
        full = np.asarray(full, dtype=np.float64)
        order = full.ndim
        dim = full.shape[0] if order else 0
        if any(s != dim for s in full.shape):
            raise ValueError("symmetric tensor must be hypercubical")
        data = compact_from_full(full.reshape(-1), order, dim, check_symmetry=check_symmetry)
        return cls(order, dim, data)

    @classmethod
    def random(cls, order: int, dim: int, rng: np.random.Generator | None = None) -> "DenseSymmetricTensor":
        """Random symmetric tensor (uniform IOU entries in [0, 1))."""
        rng = rng or np.random.default_rng()
        size = sym_storage_size(order, dim)
        return cls(order, dim, rng.random(size))

    # -- conversions -------------------------------------------------------
    def to_full(self) -> np.ndarray:
        """Expand to the full ``(dim,)*order`` ndarray (accounted allocation).

        Kept as the dense reference of ``tests/test_dense_formats.py``.
        """
        current_context().request_bytes(
            dense_size(self.order, self.dim) * 8, "DenseSymmetricTensor.full"
        )
        flat = expand_compact(self.data, self.order, self.dim)
        return flat.reshape((self.dim,) * self.order)

    # -- access ------------------------------------------------------------
    def __getitem__(self, index: Sequence[int]) -> float:
        idx = np.sort(np.asarray(index, dtype=np.int64)).reshape(1, -1)
        if idx.shape[1] != self.order:
            raise IndexError(f"expected {self.order} indices, got {idx.shape[1]}")
        loc = rank_iou_array(idx, self.dim)[0]
        return float(self.data[loc])

    def __setitem__(self, index: Sequence[int], value: float) -> None:
        idx = np.sort(np.asarray(index, dtype=np.int64)).reshape(1, -1)
        if idx.shape[1] != self.order:
            raise IndexError(f"expected {self.order} indices, got {idx.shape[1]}")
        loc = rank_iou_array(idx, self.dim)[0]
        self.data[loc] = value

    # -- reductions --------------------------------------------------------
    def norm_squared(self) -> float:
        """Frobenius norm squared of the *full* tensor, from compact data.

        Each IOU entry contributes its squared value times its permutation
        multiplicity (Property 3 applied to the norm).
        """
        mult = get_tables(self.order, self.dim).multiplicity
        return float(np.sum(mult * self.data**2))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_squared()))

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def __repr__(self) -> str:
        return (
            f"DenseSymmetricTensor(order={self.order}, dim={self.dim}, "
            f"size={self.size})"
        )
