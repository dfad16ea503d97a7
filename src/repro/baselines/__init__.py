"""Baselines the paper compares against, implemented from scratch."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".css_ttmc": ("css_s3ttmc", "css_s3ttmc_tc"),
        ".splatt": ("splatt_ttmc", "csf_ttmc"),
        ".dense_ref": (
            "dense_s3ttmc",
            "dense_s3ttmc_matrix",
            "dense_s3ttmc_tc",
            "dense_core",
        ),
    },
)
