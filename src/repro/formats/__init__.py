"""Tensor formats: dense, compact symmetric, UCOO, CSS, CSF, COO."""

from .bcss import BlockedSymmetricTensor, bcss_storage_entries
from .coo import COOTensor
from .csf import CSFTensor
from .css import CSSTensor
from .dense import frobenius_norm, refold, ttm, ttmc_all_but_one, unfold
from .dense_sym import DenseSymmetricTensor
from .partial_sym import PartiallySymmetricTensor
from .ucoo import SparseSymmetricTensor

__all__ = [
    "BlockedSymmetricTensor",
    "bcss_storage_entries",
    "COOTensor",
    "CSFTensor",
    "CSSTensor",
    "DenseSymmetricTensor",
    "PartiallySymmetricTensor",
    "SparseSymmetricTensor",
    "unfold",
    "refold",
    "ttm",
    "ttmc_all_but_one",
    "frobenius_norm",
]
