"""Sparse symmetric Tucker decomposition algorithms: HOOI and HOQRI."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".hooi": ("hooi",),
        ".hoqri": ("hoqri",),
        ".hosvd": ("hosvd_init", "random_init", "initialize"),
        ".objective": ("tucker_objective", "relative_error", "fit"),
        ".restarts": ("best_of_restarts",),
        ".reconstruct": ("reconstruct_dense", "reconstruct_at", "residual_norm"),
        ".result": ("ConvergenceTrace", "DecompositionResult"),
    },
)
