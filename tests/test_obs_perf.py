"""Tests for the performance-attribution layer.

Covers the sampling profiler (deterministic folded output under a fake
clock and fabricated stacks, lifecycle, ``REPRO_PROFILE`` parsing,
ExecContext ownership), the Chrome Trace exporter (schema, process-worker
track synthesis), the predicted-vs-measured attribution math against
hand-computed ``kernel_flops_model`` values, the noise-aware regression
comparator (v1 + v2 schemas), ``Gauge.add`` wiring into the budget, the
``ParallelRunReport`` worker rollups, and the multi-worker
process-backend trace round-trip.
"""

import json
import warnings

import pytest

from repro.obs import (
    TraceCollector,
    chrome_trace,
    read_trace,
    render_summary,
    snapshot_open_stacks,
    summarize,
    write_trace,
)
from repro.obs.attrib import attribute, render_attribution
from repro.obs.export import TraceRecords
from repro.obs.profile import (
    DEFAULT_INTERVAL,
    SamplingProfiler,
    profiler_from_env,
)
from repro.obs.regress import (
    BaselineRun,
    PhaseStats,
    compare_runs,
    has_regressions,
    load_baseline,
    phase_stats,
    render_findings,
)
from repro.runtime.context import ExecContext
from repro.obs.trace import span
from tests.conftest import make_random_tensor


class TestSamplingProfiler:
    def test_folded_deterministic_under_fake_stacks(self):
        script = [
            {"main": ["a", "b"], "w1": ["a", "c"]},
            {"main": ["a", "b"]},
            {"w1": ["a", "c"], "main": ["a", "b"]},
            {},
        ]
        expected = "main;a;b 3\nw1;a;c 2"
        for order in (script, list(reversed(script))):
            feed = iter(order)
            prof = SamplingProfiler(0.001, stacks=lambda: next(feed))
            for _ in order:
                prof.sample_once()
            assert prof.folded() == expected
            assert prof.n_samples == 4
            assert prof.idle_samples == 1

    def test_start_stop_idempotent_and_flushes(self, tmp_path):
        out = tmp_path / "prof.folded"
        prof = SamplingProfiler(0.001, path=out)
        prof.samples[("main", "work")] = 3  # pre-seeded; thread may add more
        prof.start()
        prof.start()  # no second thread
        assert prof.running
        prof.stop()
        prof.stop()  # no double flush/join
        assert not prof.running
        lines = out.read_text().splitlines()
        assert "main;work 3" in lines

    def test_write_appends_and_sums_across_runs(self, tmp_path):
        out = tmp_path / "prof.folded"
        prof = SamplingProfiler(0.001)
        prof.samples[("t", "s")] = 1
        prof.write(out)
        prof.write(out)
        assert out.read_text() == "t;s 1\nt;s 1\n"

    def test_unwritable_path_warns_not_raises(self, tmp_path):
        prof = SamplingProfiler(0.001, path=tmp_path / "no" / "dir" / "p")
        prof.start()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prof.stop()
        assert any("could not write profile" in str(w.message) for w in caught)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(0.0)

    def test_env_parsing(self, tmp_path):
        assert profiler_from_env({}) is None
        p = profiler_from_env({"REPRO_PROFILE": str(tmp_path / "out")})
        assert p is not None and p.interval == DEFAULT_INTERVAL
        p = profiler_from_env({"REPRO_PROFILE": f"{tmp_path / 'out'}:2"})
        assert p.interval == pytest.approx(0.002)
        assert p.path == tmp_path / "out"
        # A path containing ':' but no numeric tail keeps the whole spec.
        p = profiler_from_env({"REPRO_PROFILE": "C:/tmp/out"})
        assert str(p.path) == "C:/tmp/out"
        assert p.interval == DEFAULT_INTERVAL

    def test_samples_attribute_to_open_spans(self):
        col = TraceCollector()
        with span("outer", collector=col):
            with span("inner", collector=col):
                stacks = snapshot_open_stacks()
                prof = SamplingProfiler(0.001, stacks=snapshot_open_stacks)
                prof.sample_once()
        (key,) = prof.samples
        assert key[-2:] == ("outer", "inner")
        assert any(names == ["outer", "inner"] for names in stacks.values())

    def test_execcontext_owns_profiler_lifecycle(self):
        from repro.runtime.context import ExecContext

        prof = SamplingProfiler(0.5)
        with ExecContext(profiler=prof) as ctx:
            assert prof.running
            child = ctx.derive()
            assert child.profiler is None  # children must not stop it
            child.close()
            assert prof.running
        assert not prof.running

    def test_harness_env_hook(self, tmp_path, rng, monkeypatch):
        from repro.bench.harness import timed_measurement
        from repro.core.s3ttmc import s3ttmc

        out = tmp_path / "bench.folded"
        monkeypatch.setenv("REPRO_PROFILE", f"{out}:1")
        x = make_random_tensor(3, 10, 40, rng)
        u = rng.random((10, 3))
        m = timed_measurement(lambda: s3ttmc(x, u), repeats=1)
        assert m.ok
        assert out.exists()  # may be empty (fast run), but flushed


class TestChromeExport:
    def _schema_check(self, doc):
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        for e in doc["traceEvents"]:
            assert e["ph"] in ("X", "i", "M")
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0
            if e["ph"] == "i":
                assert e["ts"] >= 0 and e["s"] == "t"

    def test_spans_and_events_export(self, rng):
        from repro.core.s3ttmc import s3ttmc

        x = make_random_tensor(3, 10, 40, rng)
        u = rng.random((10, 3))
        col = TraceCollector()
        s3ttmc(x, u, ctx=ExecContext(collector=col))
        doc = chrome_trace(col)
        self._schema_check(doc)
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "lattice_ttmc" in names

    def test_process_chunk_done_synthesizes_worker_tracks(self):
        records = TraceRecords(
            spans=[
                {
                    "name": "parallel.s3ttmc",
                    "id": 1,
                    "parent": None,
                    "start": 100.0,
                    "end": 101.0,
                    "seconds": 1.0,
                    "thread": "MainThread",
                    "attrs": {"backend": "process", "n_workers": 2},
                }
            ],
            events=[
                {
                    "name": "parallel.chunk.done",
                    "ts": 100.6,
                    "parent": 1,
                    "thread": "MainThread",
                    "attrs": {"chunk": 0, "worker": 1, "numeric_seconds": 0.5},
                }
            ],
        )
        doc = chrome_trace(records)
        self._schema_check(doc)
        synth = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "parallel.chunk[0]"
        ]
        assert len(synth) == 1
        assert synth[0]["dur"] == pytest.approx(0.5e6)
        # end at event ts (rebased 0.6s), so start = 0.1s after base
        assert synth[0]["ts"] == pytest.approx(0.1e6)
        tracks = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "worker 1 (proc)" in tracks

    def test_cli_export_chrome(self, tmp_path, rng, capsys):
        from repro.core.s3ttmc import s3ttmc
        from repro.obs.__main__ import main as obs_main

        x = make_random_tensor(3, 10, 40, rng)
        u = rng.random((10, 3))
        col = TraceCollector()
        s3ttmc(x, u, ctx=ExecContext(collector=col))
        trace = tmp_path / "t.jsonl"
        write_trace(col, trace)
        assert obs_main(["export-chrome", str(trace)]) == 0
        out = tmp_path / "t.jsonl.chrome.json"
        assert out.exists()
        self._schema_check(json.loads(out.read_text()))


def _fabricated_kernel_trace(seconds=1.0, order=3, rank=4, unnz=50):
    """One serial lattice_ttmc call with two levels and a scatter.

    The structural attrs are chosen so the summed structural flops are
    easy to hand-check; ``seconds`` sets the kernel span duration that
    calibrates the family rate.
    """
    level2 = {"level": 2, "nodes": 3, "edges": 10, "entry_size": 16}
    level3 = {"level": 3, "nodes": 4, "edges": 12, "entry_size": 64}
    scatter = {"edges": 5, "entry_size": 64}
    spans = [
        {
            "name": "lattice_ttmc",
            "id": 1,
            "parent": None,
            "seconds": seconds,
            "thread": "MainThread",
            "attrs": {
                "intermediate": "compact",
                "order": order,
                "rank": rank,
                "unnz": unnz,
                "dim": 20,
            },
        },
        {
            "name": "lattice.level",
            "id": 2,
            "parent": 1,
            "seconds": 0.3,
            "thread": "MainThread",
            "attrs": level2,
        },
        {
            "name": "lattice.level",
            "id": 3,
            "parent": 1,
            "seconds": 0.5,
            "thread": "MainThread",
            "attrs": level3,
        },
        {
            "name": "lattice.scatter",
            "id": 4,
            "parent": 1,
            "seconds": 0.2,
            "thread": "MainThread",
            "attrs": scatter,
        },
    ]
    flops = {
        "2": (2 * 10 - 3) * 16.0,
        "3": (2 * 12 - 4) * 64.0,
        "scatter": 2 * 5 * 64.0,
    }
    return TraceRecords(spans=spans), flops


class TestAttribution:
    def test_structural_flops_and_rate_math(self):
        records, flops = _fabricated_kernel_trace(seconds=1.0)
        report = attribute(records)
        total = sum(flops.values())
        # The single kernel call calibrates symprop at exactly total/1s.
        assert report.rates["symprop"] == pytest.approx(total)
        rows = {r.level: r for r in report.levels}
        assert set(rows) == {"2", "3", "scatter"}
        for level, row in rows.items():
            assert row.layout == "compact"
            assert row.backend == "serial"
            assert row.flops == pytest.approx(flops[level])
            # rate-predicted: measured structural flops / calibrated rate
            assert row.predicted_seconds == pytest.approx(flops[level] / total)
        assert rows["2"].rate == pytest.approx(flops["2"] / 0.3)
        assert rows["3"].deviation == pytest.approx(
            0.5 / (flops["3"] / total) - 1.0
        )
        assert report.total_seconds == pytest.approx(1.0)
        assert report.level_share(rows["3"]) == pytest.approx(0.5)

    def test_kernel_row_uses_closed_form_model(self):
        from repro.perfmodel.predict import kernel_flops_model

        records, flops = _fabricated_kernel_trace(
            seconds=1.0, order=3, rank=4, unnz=50
        )
        report = attribute(records)
        (krow,) = report.kernels
        assert krow.family == "symprop"
        assert (krow.order, krow.rank, krow.unnz) == (3, 4, 50)
        assert krow.calls == 1
        assert krow.seconds == pytest.approx(1.0)
        rate = sum(flops.values())  # calibrated above
        expected = kernel_flops_model("symprop", 3, 4, 50, dim=400) / rate
        assert krow.predicted_seconds == pytest.approx(expected)

    def test_kernel_modes_split_into_families(self):
        # Same workload traced under both engine modes: the compiled
        # call must land in its own calibration family and its own
        # per-level rows, never averaged into the generic ones.
        generic, flops = _fabricated_kernel_trace(seconds=1.0)
        compiled, _ = _fabricated_kernel_trace(seconds=0.5)
        spans = list(generic.spans)
        offset = max(s["id"] for s in spans)
        for s in compiled.spans:
            s = dict(s, id=s["id"] + offset, attrs=dict(s["attrs"]))
            if s["parent"] is not None:
                s["parent"] += offset
            else:
                s["attrs"]["kernel"] = "compiled"
            spans.append(s)
        report = attribute(TraceRecords(spans=spans))
        total = sum(flops.values())
        assert report.rates["symprop"] == pytest.approx(total)
        assert report.rates["symprop+compiled"] == pytest.approx(total / 0.5)
        families = {k.family: k for k in report.kernels}
        assert set(families) == {"symprop", "symprop+compiled"}
        assert families["symprop+compiled"].seconds == pytest.approx(0.5)
        # closed-form prediction works for the suffixed family too
        assert families["symprop+compiled"].predicted_seconds is not None
        by_mode = {(r.level, r.kernel) for r in report.levels}
        assert ("2", "generic") in by_mode and ("2", "compiled") in by_mode
        compiled_row = next(
            r for r in report.levels if r.level == "2" and r.kernel == "compiled"
        )
        assert "compact+compiled" in compiled_row.label

    def test_kernel_modes_live_trace(self, rng):
        # End to end on real kernels: both modes traced in one run show
        # up as distinct attribution rows.
        from repro.core import s3ttmc
        from repro.runtime.context import ExecContext

        tensor = make_random_tensor(3, 10, 30, rng)
        factor = rng.standard_normal((10, 4))
        col = TraceCollector()
        ctx = ExecContext(collector=col)
        s3ttmc(tensor, factor, kernel="generic", ctx=ctx)
        s3ttmc(tensor, factor, kernel="compiled", ctx=ctx)
        report = attribute(col)
        assert {k.family for k in report.kernels} == {
            "symprop",
            "symprop+compiled",
        }
        text = render_attribution(report)
        assert "symprop+compiled" in text

    def test_worker_rollups_spans_and_events(self):
        spans = [
            {
                "name": "parallel.s3ttmc",
                "id": 1,
                "parent": None,
                "seconds": 2.0,
                "thread": "MainThread",
                "attrs": {"backend": "serial", "n_workers": 2},
            },
            {
                "name": "parallel.chunk",
                "id": 2,
                "parent": 1,
                "seconds": 1.5,
                "thread": "t0",
                "attrs": {"worker": "t0", "chunk": 0},
            },
            {
                "name": "parallel.chunk",
                "id": 3,
                "parent": 1,
                "seconds": 0.5,
                "thread": "t1",
                "attrs": {"worker": "t1", "chunk": 1},
            },
            {
                "name": "parallel.s3ttmc",
                "id": 4,
                "parent": None,
                "seconds": 3.0,
                "thread": "MainThread",
                "attrs": {"backend": "process", "n_workers": 2},
            },
        ]
        events = [
            {
                "name": "parallel.chunk.done",
                "parent": 4,
                "thread": "MainThread",
                "attrs": {"chunk": 0, "worker": 0, "numeric_seconds": 2.0},
            },
            {
                "name": "parallel.chunk.done",
                "parent": 4,
                "thread": "MainThread",
                "attrs": {"chunk": 1, "worker": 1, "numeric_seconds": 1.0},
            },
        ]
        report = attribute(TraceRecords(spans=spans, events=events))
        rollups = {r.backend: r for r in report.parallel}
        serial = rollups["serial"]
        assert serial.busy == {"t0": 1.5, "t1": 0.5}
        assert serial.critical_path_seconds == pytest.approx(1.5)
        assert serial.utilization == pytest.approx(2.0 / (2 * 2.0))
        proc = rollups["process"]
        assert proc.busy == {"w0": 2.0, "w1": 1.0}
        assert proc.critical_path_seconds == pytest.approx(2.0)
        assert proc.utilization == pytest.approx(3.0 / (2 * 3.0))

    def test_render_and_empty_trace(self):
        records, _ = _fabricated_kernel_trace()
        text = render_attribution(attribute(records), title="t")
        assert "per-level predicted vs measured" in text
        assert "kernel calls" in text
        assert "calibrated rates" in text
        empty = render_attribution(attribute(TraceRecords()))
        assert "no lattice or parallel spans" in empty

    def test_cli_report_on_real_parallel_hooi(self, tmp_path, rng, capsys):
        from repro.decomp.hooi import hooi
        from repro.obs.__main__ import main as obs_main
        from repro.runtime.budget import MemoryBudget
        from repro.runtime.context import ExecContext

        tensor = make_random_tensor(4, 16, 120, rng)
        collector = TraceCollector()
        # Process workers ship no spans: the per-level rows come from the
        # serial run's lattice spans, the parallel rollup from the
        # process run's.
        for execution, n_workers in (("serial", None), ("process", 2)):
            with ExecContext(
                budget=MemoryBudget(),
                collector=collector,
                execution=execution,
                n_workers=n_workers,
            ) as ctx:
                hooi(tensor, rank=3, max_iters=2, ctx=ctx, seed=0)
        trace = tmp_path / "hooi.jsonl"
        write_trace(collector, trace)
        assert obs_main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-level predicted vs measured" in out
        assert "parallel runs" in out
        assert "critical path" in out
        assert "util %" in out


class TestRegress:
    def test_phase_stats_median_mad(self):
        s = phase_stats([1.0, 2.0, 100.0])
        assert s.median == 2.0
        assert s.mad == 1.0  # |1-2|, |2-2|, |100-2| -> median 1
        assert s.repeats == 3
        assert s.relative_dispersion == pytest.approx(0.5)
        with pytest.raises(ValueError):
            phase_stats([])

    def test_load_v2_prefers_samples(self, tmp_path):
        payload = {
            "schema": 2,
            "workload": {"order": 3, "dim": 60, "unnz": 300, "rank": 6, "tiny": True},
            "phases": {
                "a": {"median": 9.0, "mad": 9.0, "samples": [1.0, 2.0, 3.0]},
                "b": {"median": 5.0, "mad": 0.5, "repeats": 4},
            },
        }
        p = tmp_path / "b.json"
        p.write_text(json.dumps(payload))
        run = load_baseline(p)
        assert run.schema == 2
        assert run.phases["a"].median == 2.0  # recomputed, not trusted
        assert run.phases["b"] == PhaseStats(median=5.0, mad=0.5, repeats=4)

    def test_load_v1_legacy_schema(self):
        run = load_baseline(
            {
                "workload": {"order": 4, "dim": 300, "unnz": 5000, "rank": 8},
                "plain_kernel_seconds": 0.5,
                "backends": {
                    "serial": {
                        "cold_seconds": 1.0,
                        "warm_seconds": 0.4,
                        "plan_build_seconds": 0.1,
                    }
                },
            }
        )
        assert run.schema == 1
        assert run.phases["plain_kernel"].median == 0.5
        assert run.phases["serial.warm"] == PhaseStats(median=0.4)
        assert run.phases["serial.cold"].mad == 0.0

    def test_allowance_scales_with_noise(self):
        base = BaselineRun(phases={"p": PhaseStats(median=1.0, mad=0.1, repeats=5)})
        fresh = BaselineRun(phases={"p": PhaseStats(median=1.3, mad=0.0, repeats=5)})
        # rel dispersion 0.1 -> allowed = max(0.25, 4*0.1) = 0.4 > 0.3
        findings = compare_runs(base, fresh)
        assert findings[0].status == "ok"
        assert findings[0].allowed == pytest.approx(0.4)
        # Quiet phase: allowance collapses to the threshold floor.
        quiet = BaselineRun(phases={"p": PhaseStats(median=1.0)})
        findings = compare_runs(quiet, fresh)
        assert findings[0].status == "regressed"
        assert has_regressions(findings)

    def test_improved_added_removed_noise(self):
        base = BaselineRun(
            phases={
                "gone": PhaseStats(median=1.0),
                "fast": PhaseStats(median=1.0),
                "tiny": PhaseStats(median=5e-5),
            }
        )
        fresh = BaselineRun(
            phases={
                "fast": PhaseStats(median=0.5),
                "tiny": PhaseStats(median=9e-5),
                "new": PhaseStats(median=1.0),
            }
        )
        status = {f.phase: f.status for f in compare_runs(base, fresh)}
        assert status == {
            "gone": "removed",
            "fast": "improved",
            "tiny": "noise",
            "new": "added",
        }
        assert not has_regressions(compare_runs(base, fresh))

    def test_render_findings_verdict_line(self):
        base = BaselineRun(phases={"p": PhaseStats(median=1.0)})
        fresh = BaselineRun(phases={"p": PhaseStats(median=2.0)})
        text = render_findings(compare_runs(base, fresh))
        assert "REGRESSED: p" in text
        ok = render_findings(compare_runs(base, base))
        assert "no regressions" in ok

    def test_workload_compatibility(self):
        a = BaselineRun(workload={"order": 3, "dim": 60, "unnz": 300, "rank": 6})
        b = BaselineRun(workload={"order": 4, "dim": 60, "unnz": 300, "rank": 6})
        assert a.compatible_with(a)
        assert not a.compatible_with(b)

    def test_current_committed_baseline_loads(self):
        from pathlib import Path

        committed = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"
        run = load_baseline(committed)
        assert run.schema == 2
        assert "plain_kernel" in run.phases
        assert all(p.median > 0 for p in run.phases.values())


class TestGaugeAddAndBudgetWiring:
    def test_gauge_add_tracks_value_and_max(self):
        from repro.obs import MetricsRegistry

        g = MetricsRegistry().gauge("g")
        g.add(5)
        g.add(3)
        g.add(-6)
        assert g.value == 2
        assert g.max == 8

    def test_budget_in_use_gauge_deltas(self):
        from repro.runtime.budget import MemoryBudget

        budget, col = MemoryBudget(), TraceCollector()
        budget.request(100, "a", collector=col)
        budget.request(50, "b", collector=col)
        budget.release(100, "a", collector=col)
        g = col.metrics.gauge("budget.in_use_bytes")
        assert g.value == 50
        assert g.max == 150


class TestWorkerBusyReport:
    def test_serial_backend_fills_worker_busy(self, rng):
        from repro.parallel import ParallelRunReport, parallel_s3ttmc

        x = make_random_tensor(3, 14, 90, rng)
        u = rng.random((14, 4))
        report = ParallelRunReport()
        parallel_s3ttmc(x, u, n_workers=2, backend="serial", report=report)
        assert report.worker_busy
        assert report.busy_seconds() == pytest.approx(sum(report.chunk_seconds))
        assert report.critical_path_seconds() == pytest.approx(
            max(report.worker_busy.values())
        )
        assert 0.0 <= report.utilization() <= 1.0 + 1e-9

    def test_rollup_methods_on_fabricated_report(self):
        from repro.parallel import ParallelRunReport

        r = ParallelRunReport(
            n_workers=2,
            chunk_seconds=[0.7, 0.5],
            elapsed=1.0,
            worker_busy={"a": 0.7, "b": 0.5},
        )
        assert r.busy_seconds() == pytest.approx(1.2)
        assert r.critical_path_seconds() == pytest.approx(0.7)
        assert r.utilization() == pytest.approx(0.6)
        # Fallback when no worker identities were recorded (old callers).
        bare = ParallelRunReport(chunk_seconds=[0.3, 0.4])
        assert bare.busy_seconds() == pytest.approx(0.7)
        assert bare.critical_path_seconds() == pytest.approx(0.4)
        assert bare.utilization() == 0.0


class TestProcessTraceRoundTrip:
    def test_multi_worker_process_trace_summarize_and_report(self, tmp_path, rng):
        from repro.parallel import ParallelRunReport, make_backend, parallel_s3ttmc

        x = make_random_tensor(3, 16, 120, rng)
        u = rng.random((16, 4))
        report = ParallelRunReport()
        col = TraceCollector()
        with make_backend("process", 2) as backend:
            parallel_s3ttmc(
                x, u, backend=backend, report=report, ctx=ExecContext(collector=col)
            )
        path = tmp_path / "proc.jsonl"
        write_trace(col, path)
        records = read_trace(path)
        done = [e for e in records.events if e["name"] == "parallel.chunk.done"]
        assert done, "process backend must report chunk.done events"
        workers = {e["attrs"]["worker"] for e in done}
        assert len(workers) >= 1  # on a loaded host one worker may win all
        assert report.worker_busy  # w<id> keys from the finish() path
        assert all(w.startswith("w") for w in report.worker_busy)
        # Round-trip: summarize and attribute both digest the parsed file.
        summary = summarize(records)
        assert summary.span_count == len(records.spans)
        assert summary.event_count == len(records.events)
        text = render_summary(summary, title="proc")
        assert f"spans: {summary.span_count}" in text
        att = attribute(records)
        rollups = {r.backend: r for r in att.parallel}
        assert "process" in rollups
        assert rollups["process"].busy_seconds == pytest.approx(
            sum(report.worker_busy.values()), rel=1e-6
        )


class TestVerifyWiring:
    def test_run_case_trace_path_appends(self, tmp_path):
        from repro.verify.generators import Workload
        from repro.verify.runner import run_case

        spec = Workload.from_spec(
            "order=3,dim=7,rank=4,unnz=25,dist=uniform,seed=0"
        )
        trace = tmp_path / "verify.jsonl"
        results = run_case(spec, trace_path=str(trace))
        assert results and all(r.ok for r in results)
        records = read_trace(trace)
        assert records.spans
        run_case(spec, trace_path=str(trace))
        assert len(read_trace(trace).spans) == 2 * len(records.spans)

    def test_verify_cli_profile_env(self, tmp_path, monkeypatch, capsys):
        from repro.verify.__main__ import main as verify_main

        out = tmp_path / "verify.folded"
        monkeypatch.setenv("REPRO_PROFILE", f"{out}:1")
        rc = verify_main(
            [
                "--case",
                "order=3,dim=7,rank=4,unnz=25,dist=uniform,seed=0",
                "-q",
            ]
        )
        assert rc == 0
        assert out.exists()
        text = out.read_text()
        if text:  # sampling is statistical; when it fired, stacks fold
            assert all(" " in line for line in text.splitlines())
