"""SymProp core: symmetry-propagated S³TTMc and S³TTMcTC kernels."""

from .codegen import (
    CODEGEN_VERSION,
    STRATEGIES,
    clear_codegen_cache,
    codegen_cache_info,
    codegen_step,
    generate_step_source,
    mapping_step,
    table_step,
)
from .compile import (
    CHUNK_BYTES,
    DEFAULT_CHUNK_EDGES,
    KERNEL_VERSION,
    KernelSpec,
    build_tables,
    clear_kernel_cache,
    compiled_kernel,
    generate_kernel_source,
    get_kernel,
    kernel_cache_info,
)
from .engine import DEFAULT_BLOCK_BYTES, KERNELS, lattice_ttmc
from .lattice import Lattice, LatticeLevel, build_lattice
from .layouts import LevelLayout, compact_layout, full_layout, layout_for
from .plan import TTMcPlan, build_plan, content_fingerprint, get_plan
from .s3ttmc import s3ttmc
from .s3ttmc_tc import TTMcTCResult, s3ttmc_tc, times_core
from .stats import KernelStats

__all__ = [
    "s3ttmc",
    "s3ttmc_tc",
    "times_core",
    "TTMcTCResult",
    "KernelStats",
    "lattice_ttmc",
    "DEFAULT_BLOCK_BYTES",
    "KERNELS",
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
    "build_lattice",
    "Lattice",
    "LatticeLevel",
    "TTMcPlan",
    "content_fingerprint",
    "build_plan",
    "get_plan",
    "LevelLayout",
    "compact_layout",
    "full_layout",
    "layout_for",
    "codegen_step",
    "mapping_step",
    "table_step",
    "generate_step_source",
    "STRATEGIES",
    "CODEGEN_VERSION",
    "codegen_cache_info",
    "clear_codegen_cache",
]
