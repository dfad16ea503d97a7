"""Trace/metrics exporters and the summarize rollup.

One JSONL line per record, self-describing via ``kind``:

* ``{"kind": "span", "name", "id", "parent", "start", "end", "seconds",
  "thread", "attrs"}``
* ``{"kind": "event", "name", "ts", "parent", "thread", "attrs"}``
* ``{"kind": "metrics", "values": {...}}`` — one flat dict per collector
  flush (appended last, so a file accumulating several measurements has
  one metrics line per measurement).

The rollup (:func:`summarize` / :func:`render_summary`) reconstructs the
per-phase and per-lattice-level structure the paper's Figures 8 and 4
are built from, reusing :class:`repro.bench.records.SeriesTable` so trace
summaries render exactly like the benchmark harness's tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from .trace import TraceCollector

__all__ = [
    "write_trace",
    "read_trace",
    "TraceRecords",
    "PhaseRollup",
    "LevelRollup",
    "TraceSummary",
    "summarize",
    "render_summary",
    "structural_flops",
    "chrome_trace",
    "write_chrome_trace",
]

#: Span-name prefix the :class:`repro.runtime.timer.PhaseTimer` consumer
#: emits; the rollup groups on the suffix.
PHASE_PREFIX = "phase:"
LEVEL_SPAN = "lattice.level"
SCATTER_SPAN = "lattice.scatter"


def write_trace(
    collector: TraceCollector,
    path: Union[str, Path],
    *,
    append: bool = False,
) -> Path:
    """Serialize a collector's spans, events and metrics to JSONL."""
    path = Path(path)
    mode = "a" if append else "w"
    with path.open(mode, encoding="utf-8") as fh:
        for s in collector.spans:
            fh.write(
                json.dumps(
                    {
                        "kind": "span",
                        "name": s.name,
                        "id": s.span_id,
                        "parent": s.parent_id,
                        "start": s.start,
                        "end": s.end,
                        "seconds": s.seconds,
                        "thread": s.thread,
                        "attrs": s.attrs,
                    },
                    default=str,
                )
                + "\n"
            )
        for e in collector.events:
            fh.write(
                json.dumps(
                    {
                        "kind": "event",
                        "name": e.name,
                        "ts": e.timestamp,
                        "parent": e.parent_id,
                        "thread": e.thread,
                        "attrs": e.attrs,
                    },
                    default=str,
                )
                + "\n"
            )
        values = collector.metrics.as_dict()
        if values:
            fh.write(json.dumps({"kind": "metrics", "values": values}) + "\n")
    return path


@dataclass
class TraceRecords:
    """Parsed JSONL trace: plain dicts, grouped by kind."""

    spans: List[dict] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    metrics: List[Dict[str, float]] = field(default_factory=list)



def read_trace(path: Union[str, Path]) -> TraceRecords:
    """Parse a JSONL trace file.

    Blank and undecodable lines are skipped — a run killed mid-append
    leaves a truncated final line, and that must not make the rest of
    the trace unreadable.
    """
    records = TraceRecords()
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            kind = obj.get("kind")
            if kind == "span":
                records.spans.append(obj)
            elif kind == "event":
                records.events.append(obj)
            elif kind == "metrics":
                records.metrics.append(obj.get("values", {}))
    return records


@dataclass
class PhaseRollup:
    """Aggregate of one named phase across all iterations."""

    phase: str
    seconds: float = 0.0
    count: int = 0


@dataclass
class LevelRollup:
    """Aggregate of one lattice level across all kernel invocations.

    ``scatter_edges`` counts the top-level edges folded out of this
    level's ``K`` (the fused level-``N-1`` span's ``scatter_edges``, or
    a ``lattice.scatter`` span naming the level); ``flops`` includes
    that work.
    """

    level: int
    seconds: float = 0.0
    count: int = 0
    nodes: int = 0
    edges: int = 0
    entries: int = 0
    scatter_edges: int = 0
    flops: float = 0.0


def structural_flops(name: str, attrs: dict) -> float:
    """Exact flops of one ``lattice.level``/``lattice.scatter`` span.

    Level: each edge contributes a multiply+add per entry, minus one add
    per node (the first term) — matching ``KernelStats.add_level``.
    Scatter: value-scale plus accumulate per entry per top edge — matching
    ``KernelStats.add_scatter``; a fused level span counts the top edges
    it folds (``scatter_edges``) the same way.
    """
    entry = float(attrs.get("entry_size", 0))
    edges = float(attrs.get("edges", 0))
    if name == SCATTER_SPAN:
        return 2.0 * edges * entry
    nodes = float(attrs.get("nodes", 0))
    scatter = float(attrs.get("scatter_edges", 0))
    return (2.0 * edges - nodes) * entry + 2.0 * scatter * entry


@dataclass
class TraceSummary:
    """Everything :func:`render_summary` needs, as plain aggregates."""

    phases: Dict[str, PhaseRollup] = field(default_factory=dict)
    levels: Dict[int, LevelRollup] = field(default_factory=dict)
    iterations: int = 0
    span_count: int = 0
    event_count: int = 0
    budget_peak: Optional[float] = None
    total_seconds: float = 0.0



def summarize(records: Union[TraceRecords, TraceCollector]) -> TraceSummary:
    """Roll a trace up into per-phase and per-level aggregates."""
    if isinstance(records, TraceCollector):
        spans = [
            {
                "name": s.name,
                "seconds": s.seconds,
                "attrs": s.attrs,
                "parent": s.parent_id,
                "id": s.span_id,
            }
            for s in records.spans
        ]
        events = [{"name": e.name, "attrs": e.attrs} for e in records.events]
        metrics = [records.metrics.as_dict()]
    else:
        spans = records.spans
        events = records.events
        metrics = records.metrics

    summary = TraceSummary(span_count=len(spans), event_count=len(events))
    for s in spans:
        name = s.get("name", "")
        seconds = float(s.get("seconds") or 0.0)
        attrs = s.get("attrs") or {}
        if name.startswith(PHASE_PREFIX):
            phase = attrs.get("phase", name[len(PHASE_PREFIX):])
            rollup = summary.phases.setdefault(phase, PhaseRollup(phase))
            rollup.seconds += seconds
            rollup.count += 1
        elif name == LEVEL_SPAN:
            level = int(attrs.get("level", -1))
            lr = summary.levels.setdefault(level, LevelRollup(level))
            lr.seconds += seconds
            lr.count += 1
            lr.nodes += int(attrs.get("nodes", 0))
            lr.edges += int(attrs.get("edges", 0))
            lr.entries += int(attrs.get("nodes", 0)) * int(attrs.get("entry_size", 0))
            lr.scatter_edges += int(attrs.get("scatter_edges", 0))
            lr.flops += structural_flops(name, attrs)
        elif name == SCATTER_SPAN and "level" in attrs:
            lr = summary.levels.setdefault(
                int(attrs["level"]), LevelRollup(int(attrs["level"]))
            )
            lr.seconds += seconds
            lr.scatter_edges += int(attrs.get("edges", 0))
            lr.flops += structural_flops(name, attrs)
        elif ".iteration" in name:
            summary.iterations += 1
        if s.get("parent") is None:
            summary.total_seconds += seconds
    for flat in metrics:
        peak = flat.get("budget.peak_bytes.max", flat.get("budget.peak_bytes"))
        if peak is not None:
            summary.budget_peak = max(summary.budget_peak or 0.0, float(peak))
    return summary


def render_summary(summary: TraceSummary, title: str = "trace summary") -> str:
    """Render rollups as harness-style tables (``SeriesTable``)."""
    # Imported lazily: bench pulls in the perfmodel/runtime stack, and the
    # runtime imports the tracer — keep repro.obs importable standalone.
    from ..bench.records import SeriesTable, format_seconds

    blocks: List[str] = []
    total = sum(r.seconds for r in summary.phases.values())
    phase_table = SeriesTable(f"{title}: per-phase rollup", "phase")
    for name, rollup in sorted(
        summary.phases.items(), key=lambda kv: -kv[1].seconds
    ):
        phase_table.set("total", name, format_seconds(rollup.seconds))
        phase_table.set("count", name, str(rollup.count))
        share = 100.0 * rollup.seconds / total if total > 0 else 0.0
        phase_table.set("%", name, f"{share:.1f}")
    if summary.phases:
        blocks.append(phase_table.render())

    if summary.levels:
        level_table = SeriesTable(f"{title}: lattice levels", "level")
        for level in sorted(summary.levels):
            lr = summary.levels[level]
            level_table.set("seconds", str(level), format_seconds(lr.seconds))
            level_table.set("nodes", str(level), str(lr.nodes))
            level_table.set("edges", str(level), str(lr.edges))
            level_table.set("entries", str(level), str(lr.entries))
            level_table.set("scatter edges", str(level), str(lr.scatter_edges))
            level_table.set("flops", str(level), f"{lr.flops:.4g}")
        blocks.append(level_table.render())

    footer = [
        f"spans: {summary.span_count}   events: {summary.event_count}"
        f"   iterations: {summary.iterations}"
    ]
    if summary.budget_peak is not None:
        footer.append(f"budget peak: {summary.budget_peak / 2**20:.2f} MiB")
    if total > 0:
        footer.append(f"phase total: {format_seconds(total)}")
    blocks.append("  ".join(footer))
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Chrome Trace Event export
# ---------------------------------------------------------------------------

#: Event name the process backend emits when a worker's chunk lands; its
#: attrs carry the worker id and the worker-side numeric seconds, which
#: is all the parent process ever sees of the worker's timeline.
CHUNK_DONE_EVENT = "parallel.chunk.done"


def chrome_trace(records: Union[TraceRecords, TraceCollector]) -> dict:
    """Convert a trace to Chrome Trace Event JSON (Perfetto/speedscope).

    Spans become complete (``"ph": "X"``) events on one track per thread;
    point events become instants. Process-backend workers never ship
    their spans across the process boundary, but every finished chunk
    reports a slot-tagged ``parallel.chunk.done`` event with its
    worker-side numeric seconds — those are synthesized into ``X`` events
    on per-worker tracks (``worker <id> (proc)``), so multi-process runs
    still render a per-worker timeline. Timestamps are rebased to the
    earliest record (``perf_counter`` origins are arbitrary) and
    expressed in microseconds, as the format requires.
    """
    if isinstance(records, TraceCollector):
        spans = [
            {
                "name": s.name,
                "id": s.span_id,
                "parent": s.parent_id,
                "start": s.start,
                "end": s.end,
                "seconds": s.seconds,
                "thread": s.thread,
                "attrs": s.attrs,
            }
            for s in records.spans
        ]
        events = [
            {
                "name": e.name,
                "ts": e.timestamp,
                "parent": e.parent_id,
                "thread": e.thread,
                "attrs": e.attrs,
            }
            for e in records.events
        ]
    else:
        spans = records.spans
        events = records.events

    stamps = [float(s.get("start") or 0.0) for s in spans]
    stamps += [float(e.get("ts") or 0.0) for e in events]
    base = min(stamps) if stamps else 0.0

    def us(ts: float) -> float:
        return round((ts - base) * 1e6, 3)

    tids: Dict[str, int] = {}

    def tid(track: str) -> int:
        if track not in tids:
            tids[track] = len(tids) + 1
        return tids[track]

    out: List[dict] = []
    for s in spans:
        attrs = dict(s.get("attrs") or {})
        attrs["span_id"] = s.get("id")
        if s.get("parent") is not None:
            attrs["parent_id"] = s.get("parent")
        out.append(
            {
                "name": s.get("name", ""),
                "ph": "X",
                "cat": "span",
                "ts": us(float(s.get("start") or 0.0)),
                "dur": round(float(s.get("seconds") or 0.0) * 1e6, 3),
                "pid": 1,
                "tid": tid(s.get("thread") or "main"),
                "args": attrs,
            }
        )
    for e in events:
        attrs = dict(e.get("attrs") or {})
        ts = float(e.get("ts") or 0.0)
        out.append(
            {
                "name": e.get("name", ""),
                "ph": "i",
                "cat": "event",
                "s": "t",
                "ts": us(ts),
                "pid": 1,
                "tid": tid(e.get("thread") or "main"),
                "args": attrs,
            }
        )
        if e.get("name") == CHUNK_DONE_EVENT and "numeric_seconds" in attrs:
            seconds = float(attrs.get("numeric_seconds") or 0.0)
            track = f"worker {attrs.get('worker', '?')} (proc)"
            out.append(
                {
                    "name": f"parallel.chunk[{attrs.get('chunk', '?')}]",
                    "ph": "X",
                    "cat": "span",
                    # The done event fires when the parent receives the
                    # result, so the chunk's execution window *ends* here.
                    "ts": us(ts - seconds),
                    "dur": round(seconds * 1e6, 3),
                    "pid": 1,
                    "tid": tid(track),
                    "args": attrs,
                }
            )
    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": n,
            "args": {"name": track},
        }
        for track, n in sorted(tids.items(), key=lambda kv: kv[1])
    ]
    return {"traceEvents": meta + out, "displayTimeUnit": "ms"}


def write_chrome_trace(
    records: Union[TraceRecords, TraceCollector], path: Union[str, Path]
) -> Path:
    """Serialize :func:`chrome_trace` output to ``path`` (JSON)."""
    path = Path(path)
    path.write_text(
        json.dumps(chrome_trace(records), default=str) + "\n", encoding="utf-8"
    )
    return path
