"""Partially symmetric tensors with symmetry ``{i₁}, {i₂…i_N}``.

This is the storage class of both the S³TTMc output ``Y`` and the core
tensor ``C`` in SymProp (Section IV): the first mode is free (``nrows``
extent — ``I`` for ``Y``, ``R`` for ``C``) and the remaining ``N-1`` modes
are jointly symmetric with dimension ``sym_dim = R``, stored compactly.

The object *is* its mode-1 unfolding: a ``(nrows, S_{N-1,R})`` matrix whose
columns follow the lex IOU enumeration — precisely ``Y_p(1)`` / ``C_p(1)``
in the paper's notation.
"""

from __future__ import annotations

import numpy as np

from ..runtime.context import current_context
from ..symmetry.combinatorics import dense_size, sym_storage_size
from ..symmetry.expansion import expand_compact
from ..symmetry.tables import get_tables

__all__ = ["PartiallySymmetricTensor"]


class PartiallySymmetricTensor:
    """Order-``N`` tensor, symmetric in modes 2..N, compact along them.

    Parameters
    ----------
    nrows:
        Extent of the non-symmetric first mode.
    sym_order:
        Number of symmetric modes (``N - 1``).
    sym_dim:
        Dimension size of the symmetric modes (the Tucker rank ``R``).
    data:
        Optional ``(nrows, S_{sym_order, sym_dim})`` array; zeros if omitted.
    """

    def __init__(
        self,
        nrows: int,
        sym_order: int,
        sym_dim: int,
        data: np.ndarray | None = None,
    ):
        if nrows < 0 or sym_order < 1 or sym_dim < 0:
            raise ValueError("invalid shape parameters")
        self.nrows = nrows
        self.sym_order = sym_order
        self.sym_dim = sym_dim
        self.sym_size = sym_storage_size(sym_order, sym_dim)
        if data is None:
            nbytes, label = nrows * self.sym_size * 8, "PartiallySymmetricTensor.data"
            ctx = current_context()
            ctx.request_bytes(nbytes, label)
            try:
                data = np.zeros((nrows, self.sym_size), dtype=np.float64)
            except BaseException:
                ctx.release_bytes(nbytes, label)
                raise
        else:
            data = np.asarray(data, dtype=np.float64)
            if data.shape != (nrows, self.sym_size):
                raise ValueError(
                    f"data must have shape ({nrows}, {self.sym_size}), got {data.shape}"
                )
        self.data = data

    @property
    def order(self) -> int:
        """Full tensor order ``N`` (one free mode + sym_order symmetric)."""
        return self.sym_order + 1

    @property
    def unfolding(self) -> np.ndarray:
        """The compact mode-1 unfolding ``(nrows, S_{N-1,R})`` — ``Y_p(1)``."""
        return self.data

    def multiplicities(self) -> np.ndarray:
        """The vector ``p`` (Property 3) matching this column layout."""
        return get_tables(self.sym_order, self.sym_dim).multiplicity.astype(np.float64)

    def weighted_unfolding(self) -> np.ndarray:
        """``Y_p(1) @ M`` — columns scaled by their permutation counts."""
        return self.data * self.multiplicities()[None, :]

    def to_full_unfolding(self) -> np.ndarray:
        """Expand to the full ``(nrows, sym_dim**sym_order)`` unfolding.

        This is the ``Y_(1) = Y_p(1) Eᵀ`` of Property 2 — the allocation
        that makes HOOI's SVD step blow up; it is budget-accounted.
        """
        full_cols = dense_size(self.sym_order, self.sym_dim)
        current_context().request_bytes(
            self.nrows * full_cols * 8, "PartiallySymmetricTensor.full_unfolding"
        )
        try:
            return expand_compact(self.data, self.sym_order, self.sym_dim)
        except BaseException:
            # The caller releases on the success path (it owns the returned
            # array); on failure nothing is returned, so give back here.
            current_context().release_bytes(
                self.nrows * full_cols * 8, "PartiallySymmetricTensor.full_unfolding"
            )
            raise

    def to_full_tensor(self) -> np.ndarray:
        """Full order-``N`` ndarray ``(nrows, sym_dim, ..., sym_dim)``."""
        flat = self.to_full_unfolding()
        return flat.reshape((self.nrows,) + (self.sym_dim,) * self.sym_order)

    def mode1_ttm(self, matrix: np.ndarray) -> "PartiallySymmetricTensor":
        """``self ×₁ matrixᵀ`` on the non-symmetric mode (Property 2).

        ``matrix`` is ``(nrows, R')``; the result keeps the symmetric-mode
        layout and has ``R'`` rows — this is exactly Line 2 of Algorithm 2,
        ``C_p(1) = Uᵀ Y_p(1)``, when called with ``U``.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape[0] != self.nrows:
            raise ValueError(
                f"matrix rows {matrix.shape[0]} != non-symmetric extent {self.nrows}"
            )
        product = matrix.T @ self.data
        return PartiallySymmetricTensor(
            matrix.shape[1], self.sym_order, self.sym_dim, product
        )

    def norm_squared(self) -> float:
        """Frobenius norm squared of the full tensor, from compact storage."""
        return float(np.sum(self.weighted_unfolding() * self.data))

    def norm(self) -> float:
        return float(np.sqrt(max(self.norm_squared(), 0.0)))

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def __repr__(self) -> str:
        return (
            f"PartiallySymmetricTensor(nrows={self.nrows}, sym_order={self.sym_order}, "
            f"sym_dim={self.sym_dim}, compact_cols={self.sym_size})"
        )
