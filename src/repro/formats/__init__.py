"""Tensor formats: dense, compact symmetric, UCOO, CSS, CSF, COO."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".bcss": ("BlockedSymmetricTensor", "bcss_storage_entries"),
        ".coo": ("COOTensor",),
        ".csf": ("CSFTensor",),
        ".css": ("CSSTensor",),
        ".dense_sym": ("DenseSymmetricTensor",),
        ".partial_sym": ("PartiallySymmetricTensor",),
        ".ucoo": ("SparseSymmetricTensor",),
        ".dense": ("unfold", "refold", "ttm", "ttmc_all_but_one", "frobenius_norm"),
    },
)
