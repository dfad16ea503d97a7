"""Symmetric CP decomposition (future-work extension of the paper).

Symmetry propagation applied to the MTTKRP kernel: intermediate products
stay ``R``-vectors at every lattice level, and symmetric CP-ALS rides on
top — the direction the paper's conclusion proposes for "other tensor
decomposition methods".
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".mttkrp": ("symmetric_mttkrp",),
        ".als": (
            "symmetric_cp_als",
            "SymmetricCPResult",
            "cp_inner_product",
            "rank_one_inner_products",
        ),
    },
)
