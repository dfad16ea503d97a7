"""Analytic performance models: flop counts (Eq. 9, Table II) and memory."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".complexity": (
            "c_css",
            "c_sp",
            "total_css",
            "total_sp",
            "total_cp",
            "kernel_flops_for_layout",
            "svd_cost",
            "qr_cost",
            "hoqri_nary_cost",
            "ttmc_tc_extra_cost",
            "table2_complexities",
        ),
        ".memory": (
            "y_full_bytes",
            "y_compact_bytes",
            "expanded_coo_bytes",
            "lattice_level_nodes_bound",
            "intermediate_bytes_bound",
            "suggest_nz_batch",
            "KernelFootprint",
            "kernel_footprint",
            "footprint_table",
            "WorkerFootprint",
            "worker_footprint",
        ),
        ".predict": ("RateCalibration", "kernel_flops_model", "predict_seconds"),
    },
)
