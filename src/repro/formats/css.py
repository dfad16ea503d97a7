"""CSS: Compressed Sparse Symmetric format (Shivakumar et al. [11], [12]).

CSS is a prefix trie over the lex-sorted IOU non-zeros of a sparse
symmetric tensor: level ``d`` holds one node per distinct length-``d``
index prefix, so non-zeros sharing prefixes share tree ancestors — the
"between IOU non-zeros" memoization of the paper. The "within permutations"
memoization lives in the kernels' sub-multiset lattice
(:mod:`repro.core.lattice`), which both the CSS baseline kernel and the
SymProp kernel reuse; they differ only in whether intermediate ``K``
tensors are stored full (``R^l``) or compact (``S_{l,R}``).

This class is the storage object: it owns the trie, exposes compression
statistics, and hands kernels the underlying UCOO arrays.
"""

from __future__ import annotations

import numpy as np

from ._trie import PrefixTrie, build_trie
from .ucoo import SparseSymmetricTensor

__all__ = ["CSSTensor"]


class CSSTensor:
    """Tree-compressed sparse symmetric tensor, built from a canonical
    :class:`SparseSymmetricTensor`."""

    def __init__(self, ucoo: SparseSymmetricTensor):
        self.ucoo = ucoo
        self.trie: PrefixTrie = build_trie(ucoo.indices)

    # -- delegation ----------------------------------------------------------
    @property
    def order(self) -> int:
        return self.ucoo.order

    @property
    def dim(self) -> int:
        return self.ucoo.dim

    @property
    def unnz(self) -> int:
        return self.ucoo.unnz

    @property
    def indices(self) -> np.ndarray:
        return self.ucoo.indices

    @property
    def values(self) -> np.ndarray:
        return self.ucoo.values

    # -- tree statistics -------------------------------------------------------
    @property
    def node_counts(self) -> list[int]:
        """Trie nodes per level — the prefix-sharing statistic."""
        return self.trie.node_counts

    @property
    def nbytes(self) -> int:
        """Index-structure bytes plus values."""
        return self.trie.storage_bytes() + self.ucoo.values.nbytes

    def __repr__(self) -> str:
        return (
            f"CSSTensor(order={self.order}, dim={self.dim}, unnz={self.unnz}, "
            f"nodes={self.node_counts})"
        )
