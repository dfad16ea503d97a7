"""Benchmark harness: opt-in trace/profile scopes and figure-as-table reporting."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".harness": ("TRACE_ENV_VAR", "maybe_trace"),
        ".records": ("Measurement", "SeriesTable", "format_seconds", "geometric_mean"),
    },
)
