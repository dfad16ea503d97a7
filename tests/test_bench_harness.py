"""Tests for the benchmark harness and reporting types."""

import numpy as np
import pytest

from repro.bench.records import Measurement, SeriesTable, format_seconds, geometric_mean


class TestMeasurement:
    def test_render(self):
        assert Measurement.from_seconds(2.5).render() == "2.50 s"
        assert Measurement.from_seconds(0.0021).render() == "2.10 ms"
        assert Measurement.from_seconds(3e-6).render() == "3.0 µs"
        assert Measurement.from_seconds(123.0).render() == "123 s"
        assert Measurement.out_of_memory().render() == "OOM"
        assert Measurement().render() == "-"

    def test_ok_flag(self):
        assert Measurement.from_seconds(1.0).ok
        assert not Measurement.out_of_memory().ok

    def test_format_seconds(self):
        assert format_seconds(0.05) == "50.00 ms"


class TestGeometricMean:
    def test_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_ignores_nonpositive(self):
        assert geometric_mean([2.0, 0.0, -1.0, 8.0]) == pytest.approx(4.0)

    def test_empty_nan(self):
        assert np.isnan(geometric_mean([]))


class TestSeriesTable:
    def test_set_get_render(self):
        table = SeriesTable("Fig X", "dataset")
        table.set("SP", "L6", Measurement.from_seconds(0.5))
        table.set("CSS", "L6", Measurement.out_of_memory())
        table.set("SP", "L7", Measurement.from_seconds(1.0))
        text = table.render()
        assert "Fig X" in text and "OOM" in text and "500.00 ms" in text
        assert table.rows == ["L6", "L7"]
        assert table.series == ["SP", "CSS"]

    def test_speedup(self):
        table = SeriesTable("t", "row")
        table.set("base", "a", Measurement.from_seconds(4.0))
        table.set("fast", "a", Measurement.from_seconds(2.0))
        assert table.speedup("base", "fast", "a") == pytest.approx(2.0)

    def test_speedup_none_on_oom(self):
        table = SeriesTable("t", "row")
        table.set("base", "a", Measurement.out_of_memory())
        table.set("fast", "a", Measurement.from_seconds(2.0))
        assert table.speedup("base", "fast", "a") is None

    def test_non_measurement_cells(self):
        table = SeriesTable("Table III", "dataset")
        table.set("order", "L6", 6)
        table.set("unnz", "L6", 5000)
        assert "5000" in table.render()


class TestMaybeTrace:
    def test_ctx_less_call_is_traced(self, tmp_path, monkeypatch):
        """``REPRO_TRACE`` reaches kernels called without ``ctx=`` (as
        ``benchmarks/bench_parallel_baseline.py`` calls them)."""
        from repro import random_sparse_symmetric, s3ttmc
        from repro.bench.harness import maybe_trace
        from repro.obs import read_trace
        from repro.runtime.context import current_context, default_context

        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        x = random_sparse_symmetric(3, 10, 40, seed=0)
        with maybe_trace() as collector:
            s3ttmc(x, np.ones((10, 2)))
        assert collector.find("s3ttmc") and collector.find("lattice.level")
        assert any(s["name"] == "s3ttmc" for s in read_trace(path).spans)
        assert current_context() is default_context()
