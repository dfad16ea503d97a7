"""Benchmark harness: guarded timing and figure-as-table reporting."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".harness": (
            "DEFAULT_BUDGET_GB",
            "TRACE_ENV_VAR",
            "bench_repeats",
            "maybe_trace",
            "timed_measurement",
            "guarded_kernel_measurement",
            "preferred_batch",
        ),
        ".records": ("Measurement", "SeriesTable", "format_seconds", "geometric_mean"),
    },
)
