"""Tests for the memory-budget runtime and phase timers."""

import time

import numpy as np
import pytest

from repro.runtime import ExecContext, current_context
from repro.runtime.budget import MemoryBudget, MemoryLimitError
from repro.runtime.timer import PhaseTimer


class TestBudget:
    def test_no_budget_is_noop(self):
        ctx = ExecContext()  # no budget: never raises
        ctx.request_bytes(10**15, "huge")
        ctx.release_bytes(10**15, "huge")

    def test_limit_enforced(self):
        budget = MemoryBudget(limit_bytes=1000)
        budget.request(600, "a")
        with pytest.raises(MemoryLimitError):
            budget.request(600, "b")
        budget.release(600, "a")
        budget.request(900, "c")

    def test_gigabytes_constructor(self):
        budget = MemoryBudget(gigabytes=2.0)
        assert budget.limit_bytes == 2 * 2**30

    def test_both_limits_rejected(self):
        with pytest.raises(ValueError):
            MemoryBudget(limit_bytes=10, gigabytes=1.0)

    def test_peak_tracking(self):
        budget = MemoryBudget()
        budget.request(100, "a")
        budget.request(50, "b")
        budget.release(100, "a")
        assert budget.peak == 150
        assert budget.in_use == 50

    def test_nesting_and_current(self):
        """The active context's budget is the one leaf code declares to."""
        assert current_context().budget is None
        outer, inner = MemoryBudget(limit_bytes=100), MemoryBudget(limit_bytes=50)
        with ExecContext(budget=outer):
            assert current_context().budget is outer
            with ExecContext(budget=inner):
                assert current_context().budget is inner
            assert current_context().budget is outer
        assert current_context().budget is None

    def test_error_carries_context(self):
        ctx = ExecContext(budget=MemoryBudget(limit_bytes=10))
        with pytest.raises(MemoryLimitError) as info:
            ctx.request_bytes(100, "Y (full)")
        assert info.value.label == "Y (full)"
        assert info.value.nbytes == 100
        assert info.value.limit == 10

    def test_allocation_labels(self):
        budget = MemoryBudget()
        budget.request(64, "K level 2")
        budget.request(64, "K level 2")
        assert budget.allocations["K level 2"] == 128
        budget.release(128, "K level 2")
        assert "K level 2" not in budget.allocations

    def test_negative_request_rejected(self):
        with pytest.raises(ValueError):
            MemoryBudget().request(-5)

    def test_kernel_ooms_under_tight_budget(self, rng):
        """End-to-end: the CSS baseline trips the budget, SymProp fits."""
        from repro.baselines import css_s3ttmc
        from repro.core import s3ttmc
        from tests.conftest import make_random_tensor

        x = make_random_tensor(6, 30, 50, rng)
        u = rng.random((30, 6))
        # CSS level-5 intermediates need ~300 nodes x 6^5 x 8 B ≈ 19 MB;
        # SymProp's compact path stays under ~4 MB in total.
        def tight():
            return ExecContext(budget=MemoryBudget(limit_bytes=8_000_000))

        with pytest.raises(MemoryLimitError):
            css_s3ttmc(x, u, ctx=tight())
        y = s3ttmc(x, u, ctx=tight())  # fits
        assert y.unfolding.shape == (30, 252)


class TestTimer:
    def test_phases_accumulate(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            time.sleep(0.01)
        with timer.phase("a"):
            pass
        with timer.phase("b"):
            pass
        assert timer.counts["a"] == 2
        assert timer.totals["a"] >= 0.01
        assert set(timer.breakdown()) == {"a", "b"}

    def test_phases_trace_into_timer_collector(self):
        from repro.obs import TraceCollector

        untraced, col = PhaseTimer(), TraceCollector()
        traced = PhaseTimer(collector=col)
        with untraced.phase("a"), traced.phase("b"):
            pass
        assert [s.name for s in col.spans] == ["phase:b"]
        assert col.spans[0].seconds == pytest.approx(traced.totals["b"])

    def test_breakdown_sums_to_100(self):
        timer = PhaseTimer()
        timer.add("x", 1.0)
        timer.add("y", 3.0)
        breakdown = timer.breakdown()
        assert breakdown["x"] == pytest.approx(25.0)
        assert breakdown["y"] == pytest.approx(75.0)
        assert sum(breakdown.values()) == pytest.approx(100.0)

    def test_empty_breakdown(self):
        assert PhaseTimer().breakdown() == {}


class TestBudgetExceptionsPropagate:
    def test_phase_records_on_exception(self):
        timer = PhaseTimer()
        with pytest.raises(RuntimeError):
            with timer.phase("failing"):
                raise RuntimeError("boom")
        assert "failing" in timer.totals
