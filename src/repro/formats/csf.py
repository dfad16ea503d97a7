"""CSF: Compressed Sparse Fiber format (SPLATT's format, Smith & Karypis).

A prefix trie over the *expanded* non-zero set of a general sparse tensor —
no symmetry awareness. Building one from a symmetric tensor pays the full
distinct-permutation expansion (up to ``N!`` per IOU non-zero); that
allocation is budget-accounted, which is what makes the SPLATT baseline
"OOM" first in the reproduction, as in the paper.
"""

from __future__ import annotations

import numpy as np

from ..runtime.context import current_context
from ._trie import PrefixTrie, build_trie
from .coo import COOTensor
from .ucoo import SparseSymmetricTensor

__all__ = ["CSFTensor"]


class CSFTensor:
    """General compressed sparse fiber tensor (one mode ordering).

    Parameters
    ----------
    coo:
        Source tensor; rows are sorted by ``mode_order`` during build.
    mode_order:
        Mode permutation; the first entry is the root level. Defaults to
        the natural order, which is the mode-1 (0-based mode-0) TTMc tree.
    """

    def __init__(self, coo: COOTensor, mode_order: tuple[int, ...] | None = None):
        if mode_order is None:
            mode_order = tuple(range(coo.order))
        sorted_coo = coo.sort_by_mode_order(mode_order)
        self.order = coo.order
        self.dim = coo.dim
        self.mode_order = tuple(mode_order)
        self.values = sorted_coo.values
        self.permuted_indices = sorted_coo.indices[:, list(mode_order)]
        ctx = current_context()
        ctx.request_bytes(self.permuted_indices.nbytes, "CSF permuted indices")
        try:
            self.trie: PrefixTrie = build_trie(self.permuted_indices)
            ctx.request_bytes(self.trie.storage_bytes(), "CSF trie")
        except BaseException:
            # A half-built CSF is garbage; give its index bytes back so an
            # over-budget construction leaves the accounting untouched.
            ctx.release_bytes(self.permuted_indices.nbytes, "CSF permuted indices")
            raise

    def release_structure(self) -> None:
        """Release the budget bytes requested at construction.

        For throwaway CSF builds (e.g. the SPLATT baseline rebuilds one per
        call); long-lived cached CSFs keep their bytes accounted instead.
        """
        ctx = current_context()
        ctx.release_bytes(self.permuted_indices.nbytes, "CSF permuted indices")
        ctx.release_bytes(self.trie.storage_bytes(), "CSF trie")

    @classmethod
    def from_symmetric(
        cls, tensor: SparseSymmetricTensor, mode_order: tuple[int, ...] | None = None
    ) -> "CSFTensor":
        """Build by expanding all permutations of a symmetric tensor.

        This is how the paper feeds SPLATT: IOU input, expansion inside the
        general pipeline.
        """
        return cls(tensor.expand(), mode_order)

    @property
    def nnz(self) -> int:
        return self.values.shape[0]

    @property
    def node_counts(self) -> list[int]:
        return self.trie.node_counts

    @property
    def nbytes(self) -> int:
        return self.trie.storage_bytes() + self.values.nbytes

    def __repr__(self) -> str:
        return (
            f"CSFTensor(order={self.order}, dim={self.dim}, nnz={self.nnz}, "
            f"mode_order={self.mode_order})"
        )
