"""Unified observability: span tracing, metrics, JSONL export, rollups.

The measurement substrate behind every "where did the time/memory go?"
question in this reproduction. Three pieces:

* :mod:`repro.obs.trace` — hierarchical spans into the run's collector
  (``ExecContext.collector``; near-zero overhead when there is none;
  thread-local span stacks).
* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms.
* :mod:`repro.obs.export` — JSONL writer/reader, the per-phase /
  per-lattice-level rollup (``python -m repro.obs summarize``) and the
  Chrome Trace Event exporter (``python -m repro.obs export-chrome``).
* :mod:`repro.obs.profile` — background sampling profiler attributing
  wall time to open span stacks; folded-stack output
  (``REPRO_PROFILE=path``).
* :mod:`repro.obs.attrib` — predicted-vs-measured attribution joining
  spans against the perfmodel (``python -m repro.obs report``).
* :mod:`repro.obs.regress` — noise-aware benchmark comparison behind
  ``tools/bench_regress.py``.

Wired in end-to-end: the lattice engine emits per-level spans, the
decomposition loops emit per-iteration spans, ``PhaseTimer`` phases are
spans, the memory budget emits request/release events, the parallel
executor tags spans with worker/chunk ids, and the bench harness honours
``REPRO_TRACE=path.jsonl`` / ``REPRO_PROFILE=path``. See
``docs/observability.md``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".trace": (
            "Span",
            "TraceEvent",
            "TraceCollector",
            "current_span_id",
            "open_span_depth",
            "snapshot_open_stacks",
            "event",
            "span",
        ),
        ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
        ".profile": ("SamplingProfiler", "profiler_from_env"),
        ".attrib": ("AttributionReport", "attribute", "render_attribution"),
        ".export": (
            "TraceRecords",
            "TraceSummary",
            "chrome_trace",
            "read_trace",
            "render_summary",
            "summarize",
            "write_chrome_trace",
            "write_trace",
        ),
    },
)
