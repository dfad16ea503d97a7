"""SymProp core: symmetry-propagated S³TTMc and S³TTMcTC kernels."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".s3ttmc": ("s3ttmc",),
        ".s3ttmc_tc": ("s3ttmc_tc", "times_core", "TTMcTCResult"),
        ".stats": ("KernelStats",),
        ".engine": ("lattice_ttmc", "DEFAULT_BLOCK_BYTES", "KERNELS"),
        ".compile": (
            "KernelSpec",
            "KERNEL_VERSION",
            "CHUNK_BYTES",
            "DEFAULT_CHUNK_EDGES",
            "build_tables",
            "generate_kernel_source",
            "compiled_kernel",
            "get_kernel",
            "kernel_cache_info",
            "clear_kernel_cache",
        ),
        ".lattice": ("build_lattice", "Lattice", "LatticeLevel"),
        ".plan": ("TTMcPlan", "content_fingerprint", "build_plan", "get_plan"),
        ".layouts": ("LevelLayout", "compact_layout", "full_layout", "layout_for"),
        ".codegen": (
            "codegen_step",
            "mapping_step",
            "table_step",
            "generate_step_source",
            "STRATEGIES",
            "CODEGEN_VERSION",
            "codegen_cache_info",
            "clear_codegen_cache",
        ),
    },
)
