"""Performance attribution: predicted-vs-measured reports from traces.

The spans (:mod:`repro.obs.trace`) say where time *went*; the perfmodel
(:mod:`repro.perfmodel`) says where it *should have gone*. This module
joins the two: every ``lattice.level`` / ``lattice.scatter`` span carries
the structural quantities (nodes, edges, entry size, and the top edges a
fused level folds into ``Y``) from which its exact flop count follows —
the same arithmetic as :class:`repro.core.stats.KernelStats`
(:func:`repro.obs.export.structural_flops`) — and the enclosing
``lattice_ttmc`` span carries the workload ``(layout, order, rank,
unnz)`` the closed-form Eq.-9 models speak about. Feeding the measured
``(flops, seconds)`` pairs into
:class:`repro.perfmodel.predict.RateCalibration` and predicting each
row back via the calibrated family rate yields an efficiency table: rows
whose measured time exceeds their prediction are the ones running below
the machine's demonstrated flop rate — the signal a developer needs to
decide which ``(level, layout, backend)`` to specialize next.

For parallel runs the report adds critical-path and worker-utilization
rollups from ``parallel.s3ttmc`` spans: the serial backend nests
worker-tagged ``parallel.chunk`` spans, the process backend reports
slot-tagged ``parallel.chunk.done`` events (the worker-side seconds are
in the event attrs — worker processes never ship spans).

Surfaced as ``python -m repro.obs report trace.jsonl`` and as the
``worker_busy`` / ``utilization()`` / ``critical_path_seconds()``
extension of :class:`repro.parallel.executor.ParallelRunReport`.

The perfmodel import is lazy (``obs`` sits below ``perfmodel`` in the
layer order — see ``tools/check_layering.py``'s ``LAZY_ALLOWED``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .export import TraceRecords, structural_flops
from .trace import TraceCollector

__all__ = [
    "LevelRow",
    "KernelRow",
    "WorkerRollup",
    "AttributionReport",
    "attribute",
    "render_attribution",
]

#: Span-name → intermediate-layout → kernel family for rate calibration.
LAYOUT_FAMILIES = {"compact": "symprop", "full": "css", "cp": "cp"}


def _family(layout: str, kernel: str) -> str:
    """Calibration family for a layout under an engine mode.

    The fused exec-compiled kernels run the same arithmetic at a
    different achieved rate, so they calibrate as their own family
    (``symprop+compiled`` vs ``symprop``) — the compiled-vs-generic
    comparison then falls straight out of the report tables.
    """
    base = LAYOUT_FAMILIES.get(layout, layout)
    return f"{base}+compiled" if kernel == "compiled" else base


@dataclass
class LevelRow:
    """One ``(level, layout, kernel, backend)`` cell of the efficiency table."""

    level: str
    layout: str
    backend: str
    kernel: str = "generic"
    seconds: float = 0.0
    count: int = 0
    flops: float = 0.0
    predicted_seconds: float = 0.0

    @property
    def key(self) -> Tuple[str, str, str, str]:
        return (self.level, self.layout, self.backend, self.kernel)

    @property
    def label(self) -> str:
        layout = (
            f"{self.layout}+compiled" if self.kernel == "compiled" else self.layout
        )
        return f"{self.level}/{layout}/{self.backend}"

    @property
    def rate(self) -> float:
        """Achieved flop rate (flop/s; 0 when unmeasurable)."""
        return self.flops / self.seconds if self.seconds > 0 else 0.0

    @property
    def deviation(self) -> float:
        """``measured / predicted - 1`` — positive = slower than the model."""
        if self.predicted_seconds <= 0:
            return 0.0
        return self.seconds / self.predicted_seconds - 1.0


@dataclass
class KernelRow:
    """Whole-kernel predicted-vs-measured for one workload shape."""

    family: str
    order: int
    rank: int
    unnz: int
    calls: int = 0
    seconds: float = 0.0
    predicted_seconds: Optional[float] = None

    @property
    def label(self) -> str:
        return f"{self.family} N={self.order} R={self.rank} unnz={self.unnz}"


@dataclass
class WorkerRollup:
    """Critical-path / utilization aggregate for one backend's runs."""

    backend: str
    n_workers: int = 0
    runs: int = 0
    elapsed: float = 0.0
    critical_path_seconds: float = 0.0
    busy: Dict[str, float] = field(default_factory=dict)

    @property
    def busy_seconds(self) -> float:
        return sum(self.busy.values())

    @property
    def utilization(self) -> float:
        """Fraction of the worker-second capacity actually spent busy."""
        capacity = self.n_workers * self.elapsed
        return self.busy_seconds / capacity if capacity > 0 else 0.0


@dataclass
class AttributionReport:
    """Everything :func:`render_attribution` needs, as plain aggregates."""

    levels: List[LevelRow] = field(default_factory=list)
    kernels: List[KernelRow] = field(default_factory=list)
    parallel: List[WorkerRollup] = field(default_factory=list)
    rates: Dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0

    def level_share(self, row: LevelRow) -> float:
        """Fraction of total traced root time spent in ``row``."""
        return row.seconds / self.total_seconds if self.total_seconds > 0 else 0.0


def _as_span_dicts(records: Union[TraceRecords, TraceCollector]):
    if isinstance(records, TraceCollector):
        spans = [
            {
                "name": s.name,
                "id": s.span_id,
                "parent": s.parent_id,
                "seconds": s.seconds,
                "thread": s.thread,
                "attrs": s.attrs,
            }
            for s in records.spans
        ]
        events = [
            {
                "name": e.name,
                "parent": e.parent_id,
                "thread": e.thread,
                "attrs": e.attrs,
            }
            for e in records.events
        ]
        return spans, events
    return records.spans, records.events


def attribute(records: Union[TraceRecords, TraceCollector]) -> AttributionReport:
    """Join a trace's spans against the perfmodel into an
    :class:`AttributionReport`.

    Works on live collectors and parsed JSONL alike. Traces without
    lattice spans produce an empty (but renderable) report.
    """
    from ..perfmodel.predict import RateCalibration, predict_seconds

    spans, events = _as_span_dicts(records)
    by_id = {s.get("id"): s for s in spans}

    def ancestor(span: dict, *names: str) -> Optional[dict]:
        parent = span.get("parent")
        seen = 0
        while parent is not None and seen < 10_000:  # cycle guard
            node = by_id.get(parent)
            if node is None:
                return None
            if node.get("name") in names:
                return node
            parent = node.get("parent")
            seen += 1
        return None

    report = AttributionReport()
    report.total_seconds = sum(
        float(s.get("seconds") or 0.0)
        for s in spans
        if s.get("parent") is None
    )

    # -- per-level rows + per-kernel-call calibration samples --------------
    levels: Dict[Tuple[str, str, str], LevelRow] = {}
    calls: Dict[int, dict] = {}  # lattice_ttmc span id -> accumulators
    for s in spans:
        name = s.get("name", "")
        if name not in ("lattice.level", "lattice.scatter"):
            continue
        attrs = s.get("attrs") or {}
        kernel = ancestor(s, "lattice_ttmc")
        kattrs = (kernel or {}).get("attrs") or {}
        layout = str(kattrs.get("intermediate", "?"))
        mode = str(kattrs.get("kernel", "generic"))
        run = ancestor(s, "parallel.s3ttmc")
        backend = (
            str((run.get("attrs") or {}).get("backend", "?"))
            if run is not None
            else "serial"
        )
        level = "scatter" if name == "lattice.scatter" else str(
            attrs.get("level", "?")
        )
        flops = structural_flops(name, attrs)
        row = levels.setdefault(
            (level, layout, backend, mode),
            LevelRow(level, layout, backend, mode),
        )
        row.seconds += float(s.get("seconds") or 0.0)
        row.count += 1
        row.flops += flops
        if kernel is not None:
            acc = calls.setdefault(
                kernel.get("id"),
                {
                    "layout": layout,
                    "kernel": mode,
                    "order": int(kattrs.get("order", 0)),
                    "rank": int(kattrs.get("rank", 0)),
                    "unnz": int(kattrs.get("unnz", 0)),
                    "seconds": float(kernel.get("seconds") or 0.0),
                    "flops": 0.0,
                },
            )
            acc["flops"] += flops

    # -- calibrate family rates from the trace's own kernel calls ----------
    calibration = RateCalibration()
    for acc in calls.values():
        calibration.record(
            _family(acc["layout"], acc["kernel"]), acc["flops"], acc["seconds"]
        )
    report.rates = {
        family: rate
        for family in sorted(
            {_family(a["layout"], a["kernel"]) for a in calls.values()}
        )
        if (rate := calibration.rate(family)) is not None
    }

    # -- per-kernel-shape predicted vs measured ----------------------------
    kernels: Dict[Tuple[str, int, int, int], KernelRow] = {}
    for acc in calls.values():
        family = _family(acc["layout"], acc["kernel"])
        key = (family, acc["order"], acc["rank"], acc["unnz"])
        row = kernels.setdefault(key, KernelRow(*key))
        row.calls += 1
        row.seconds += acc["seconds"]
    for row in kernels.values():
        per_call = predict_seconds(
            calibration, row.family, row.order, row.rank, row.unnz
        )
        if per_call is not None:
            row.predicted_seconds = per_call * row.calls
    report.kernels = sorted(kernels.values(), key=lambda r: -r.seconds)

    # -- per-level predictions from the calibrated rates -------------------
    for row in levels.values():
        rate = report.rates.get(_family(row.layout, row.kernel))
        if rate:
            # Rate-predict the *measured* structural flops: chunked
            # parallel runs never match the closed-form per-call shapes
            # (each chunk sees a slice of unnz), but the structural count
            # is exact in every regime.
            row.predicted_seconds = row.flops / rate
    report.levels = sorted(
        levels.values(),
        key=lambda r: (r.layout, r.kernel, r.backend, _level_sort(r.level)),
    )

    # -- parallel rollups: critical path + worker utilization --------------
    children: Dict[Optional[int], List[dict]] = {}
    for s in spans:
        children.setdefault(s.get("parent"), []).append(s)
    events_by_parent: Dict[Optional[int], List[dict]] = {}
    for e in events:
        events_by_parent.setdefault(e.get("parent"), []).append(e)

    rollups: Dict[str, WorkerRollup] = {}
    for s in spans:
        if s.get("name") != "parallel.s3ttmc":
            continue
        attrs = s.get("attrs") or {}
        backend = str(attrs.get("backend", "?"))
        rollup = rollups.setdefault(backend, WorkerRollup(backend))
        rollup.runs += 1
        rollup.n_workers = max(rollup.n_workers, int(attrs.get("n_workers", 0)))
        rollup.elapsed += float(s.get("seconds") or 0.0)
        run_busy: Dict[str, float] = {}
        for child in children.get(s.get("id"), ()):
            if child.get("name") != "parallel.chunk":
                continue
            cattrs = child.get("attrs") or {}
            worker = str(
                cattrs.get("worker") or child.get("thread") or "worker"
            )
            run_busy[worker] = run_busy.get(worker, 0.0) + float(
                child.get("seconds") or 0.0
            )
        for evt in events_by_parent.get(s.get("id"), ()):
            if evt.get("name") != "parallel.chunk.done":
                continue
            eattrs = evt.get("attrs") or {}
            worker = f"w{eattrs.get('worker', '?')}"
            run_busy[worker] = run_busy.get(worker, 0.0) + float(
                eattrs.get("numeric_seconds") or 0.0
            )
        rollup.critical_path_seconds += max(run_busy.values(), default=0.0)
        for worker, busy in run_busy.items():
            rollup.busy[worker] = rollup.busy.get(worker, 0.0) + busy
    report.parallel = sorted(rollups.values(), key=lambda r: r.backend)
    return report


def _level_sort(level: str) -> Tuple[int, int]:
    try:
        return (0, int(level))
    except ValueError:
        return (1, 0)


def render_attribution(
    report: AttributionReport, title: str = "attribution"
) -> str:
    """Render an :class:`AttributionReport` as harness-style tables."""
    # Lazy for the same reason as render_summary: bench sits above obs.
    from ..bench.records import SeriesTable, format_seconds

    blocks: List[str] = []

    if report.levels:
        table = SeriesTable(
            f"{title}: per-level predicted vs measured", "level/layout/backend"
        )
        for row in report.levels:
            label = row.label
            table.set("measured", label, format_seconds(row.seconds))
            table.set(
                "predicted",
                label,
                format_seconds(row.predicted_seconds)
                if row.predicted_seconds > 0
                else "-",
            )
            table.set(
                "dev %",
                label,
                f"{row.deviation * 100.0:+.1f}"
                if row.predicted_seconds > 0
                else "-",
            )
            table.set("Gflop/s", label, f"{row.rate / 1e9:.3f}")
            table.set("% run", label, f"{report.level_share(row) * 100.0:.1f}")
            table.set("calls", label, str(row.count))
        blocks.append(table.render())

    if report.kernels:
        table = SeriesTable(f"{title}: kernel calls", "workload")
        for row in report.kernels:
            table.set("measured", row.label, format_seconds(row.seconds))
            table.set(
                "predicted",
                row.label,
                format_seconds(row.predicted_seconds)
                if row.predicted_seconds is not None
                else "-",
            )
            table.set("calls", row.label, str(row.calls))
        blocks.append(table.render())

    if report.parallel:
        table = SeriesTable(f"{title}: parallel runs", "backend")
        for rollup in report.parallel:
            table.set("runs", rollup.backend, str(rollup.runs))
            table.set("workers", rollup.backend, str(rollup.n_workers))
            table.set(
                "elapsed", rollup.backend, format_seconds(rollup.elapsed)
            )
            table.set(
                "busy", rollup.backend, format_seconds(rollup.busy_seconds)
            )
            table.set(
                "critical path",
                rollup.backend,
                format_seconds(rollup.critical_path_seconds),
            )
            table.set(
                "util %", rollup.backend, f"{rollup.utilization * 100.0:.1f}"
            )
        blocks.append(table.render())

    footer = []
    if report.rates:
        rates = "  ".join(
            f"{family}: {rate / 1e9:.3f} Gflop/s"
            for family, rate in sorted(report.rates.items())
        )
        footer.append(f"calibrated rates — {rates}")
    if report.total_seconds > 0:
        footer.append(f"traced root time: {format_seconds(report.total_seconds)}")
    if not blocks:
        blocks.append("no lattice or parallel spans in this trace")
    if footer:
        blocks.append("  ".join(footer))
    return "\n\n".join(blocks)
