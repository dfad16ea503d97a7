"""ExecContext tests: validation, the process-default fallback,
scoping/derivation, serialization, budget propagation under every
execution, isolation between concurrent runs, and the removed ambient
budget/collector idioms."""

import asyncio
import threading

import numpy as np
import pytest

from repro import ExecContext, current_context
from repro.core import s3ttmc
from repro.decomp import hooi
from repro.obs.trace import TraceCollector, begin_span, open_span_depth
from repro.parallel import parallel_s3ttmc
from repro.runtime import MemoryBudget, MemoryLimitError
from repro.runtime.context import (
    EXECUTIONS,
    PlanCache,
    default_context,
    reset_thread_runtime_state,
    resolve_context,
    tensor_generation,
)
from tests.conftest import make_random_tensor


class _DummyBackend:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class TestValidation:
    def test_unknown_execution(self):
        ctx = ExecContext(execution="gpu")
        with pytest.raises(ValueError, match="unknown execution"):
            ctx.validate()

    def test_unknown_execution_lists_choices(self):
        with pytest.raises(ValueError, match="expected one of"):
            ExecContext(execution="mpi").validate()

    def test_n_workers_requires_parallel(self):
        ctx = ExecContext(execution="serial", n_workers=4)
        with pytest.raises(
            ValueError, match=r"n_workers requires execution='process'"
        ):
            ctx.validate()

    def test_parallel_requires_symprop_kernel(self):
        ctx = ExecContext(execution="process")
        with pytest.raises(ValueError, match="requires kernel='symprop'"):
            ctx.validate(kernel="css")

    def test_parallel_rejects_full_intermediates(self):
        ctx = ExecContext(execution="process")
        with pytest.raises(ValueError, match="requires intermediate='compact'"):
            ctx.validate(kernel="symprop", intermediate="full")

    def test_serial_accepts_any_kernel(self):
        ExecContext().validate(kernel="css", intermediate="full")

    def test_hooi_rejects_parallel_css(self, rng):
        x = make_random_tensor(3, 8, 30, rng)
        with pytest.raises(ValueError, match="requires kernel='symprop'"):
            hooi(x, 2, kernel="css", ctx=ExecContext(execution="process"), max_iters=1)

    def test_hooi_rejects_ctx_execution_conflict(self, rng):
        # The execution keyword that could contradict ctx is gone: the
        # ExecContext is the one place a run's execution is configured.
        x = make_random_tensor(3, 8, 30, rng)
        ctx = ExecContext(execution="serial")
        with pytest.raises(TypeError, match="execution"):
            hooi(x, 2, ctx=ctx, execution="process", max_iters=1)


class TestAmbientDefault:
    def test_current_context_defaults_to_ambient(self):
        ctx = current_context()
        assert ctx is default_context()
        assert ctx.budget is None and ctx.collector is None
        assert resolve_context(None) is ctx

    def test_explicit_context_wins_inside_scope(self):
        ctx = ExecContext(seed=7)
        with ctx:
            assert current_context() is ctx
        assert current_context() is default_context()

    def test_resolve_passthrough(self):
        ctx = ExecContext()
        assert resolve_context(ctx) is ctx

    def test_legacy_budget_call_site_still_accounts(self, rng):
        """A call without ``ctx=`` accounts against the active context."""
        x = make_random_tensor(3, 8, 40, rng)
        u = rng.random((8, 2))
        with ExecContext(budget=MemoryBudget()) as ctx:
            s3ttmc(x, u)
        assert ctx.budget.peak > 0

    def test_legacy_collector_call_site_still_traces(self, rng):
        x = make_random_tensor(3, 8, 40, rng)
        col = TraceCollector()
        with ExecContext(collector=col):
            hooi(x, 2, max_iters=1)
        assert col.find("hooi.iteration")
        assert col.find("phase:s3ttmc")

    def test_default_context_never_pins_a_backend(self, rng):
        x = make_random_tensor(3, 8, 40, rng)
        parallel_s3ttmc(x, rng.random((8, 2)), 2)
        hooi(x, 2, max_iters=1, tol=-1.0)
        assert default_context().backend is None


class TestScopeAndLifecycle:
    def test_scope_installs_budget_and_collector(self, rng):
        x = make_random_tensor(3, 8, 40, rng)
        u = rng.random((8, 2))
        ctx = ExecContext(budget=MemoryBudget(), collector=TraceCollector())
        with ctx.scope():
            s3ttmc(x, u)
        assert ctx.budget.peak > 0
        assert ctx.collector.find("s3ttmc")

    def test_enter_exit_closes_owned_backend(self):
        ctx = ExecContext(execution="process")
        backend = _DummyBackend()
        with ctx:
            ctx.adopt_backend(backend)
        assert backend.closed
        assert ctx.backend is None

    def test_double_adopt_rejected(self):
        ctx = ExecContext()
        ctx.adopt_backend(_DummyBackend())
        with pytest.raises(RuntimeError, match="already owns a backend"):
            ctx.adopt_backend(_DummyBackend())
        ctx.close()

    def test_close_is_idempotent(self):
        ctx = ExecContext()
        backend = _DummyBackend()
        ctx.adopt_backend(backend)
        ctx.close()
        ctx.close()
        assert backend.closed

    def test_derive_shares_state_but_not_backend(self):
        budget = MemoryBudget(gigabytes=1)
        parent = ExecContext(
            budget=budget, collector=TraceCollector(), seed=3,
            execution="process", n_workers=2,
        )
        parent.adopt_backend(_DummyBackend())
        child = parent.derive()
        assert child.budget is budget
        assert child.collector is parent.collector
        assert child.plans is parent.plans
        assert child.seed == 3
        assert child.execution == "process" and child.n_workers == 2
        assert child.backend is None
        for removed in ("execution", "n_workers"):
            with pytest.raises(TypeError, match=removed):
                parent.derive(**{removed: None})
        parent.close()

    def test_seed_flows_to_drivers(self, rng):
        x = make_random_tensor(3, 8, 40, rng)
        a = hooi(x, 2, max_iters=1, ctx=ExecContext(seed=5))
        b = hooi(x, 2, max_iters=1, ctx=ExecContext(seed=5))
        assert np.allclose(a.factor, b.factor)


class TestPlanCache:
    def test_generation_ids_unique_and_stable(self, rng):
        x = make_random_tensor(3, 8, 20, rng)
        y = make_random_tensor(3, 8, 20, rng)
        assert tensor_generation(x) == tensor_generation(x)
        assert tensor_generation(x) != tensor_generation(y)

    def test_context_owns_plans(self, rng):
        x = make_random_tensor(4, 10, 60, rng)
        u = rng.random((10, 3))
        ctx = ExecContext()
        parallel_s3ttmc(x, u, 2, backend="serial", ctx=ctx)
        assert ctx.plans.n_tensors == 1
        assert ctx.plans is not current_context().plans

    def test_plan_cache_clear(self, rng):
        x = make_random_tensor(3, 8, 30, rng)
        cache = PlanCache()
        cache.chunk_plans(x)["probe"] = object()
        assert cache.n_tensors == 1
        cache.clear()
        assert cache.n_tensors == 0


class TestBudgetPropagation:
    """Satellite: a tiny budget must OOM under every execution — including
    inside process-backend workers, which previously ran unbudgeted."""

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_tiny_budget_raises_everywhere(self, execution, rng):
        x = make_random_tensor(4, 10, 80, rng)
        workers = None if execution == "serial" else 2
        ctx = ExecContext(
            execution=execution,
            n_workers=workers,
            budget=MemoryBudget(limit_bytes=512),
        )
        try:
            with pytest.raises(MemoryLimitError):
                hooi(x, 3, max_iters=2, ctx=ctx)
        finally:
            ctx.close()

    def test_process_worker_enforces_budget(self, rng):
        """The limit ships to workers: a budget that admits the parent's
        partials/output but nothing more must be tripped *worker-side*."""
        x = make_random_tensor(4, 10, 80, rng)
        u = rng.random((10, 3))
        probe = ExecContext(budget=MemoryBudget(), collector=TraceCollector())
        with probe:
            parallel_s3ttmc(x, u, 2, backend="process", ctx=probe)
        dispatch = [
            e
            for e in probe.collector.events
            if e.name == "budget.request" and e.attrs.get("label") == "Y (parallel)"
        ]
        assert dispatch, "parent must account the parallel output"
        base = dispatch[0].attrs["in_use"]  # partials + output at dispatch
        assert probe.budget.peak > base, "workers must report their peaks"

        ctx = ExecContext(budget=MemoryBudget(limit_bytes=base + 1))
        try:
            with ctx, pytest.raises(MemoryLimitError):
                parallel_s3ttmc(x, u, 2, backend="process", ctx=ctx)
        finally:
            ctx.close()

    def test_worker_peak_folds_into_parent_budget(self, rng):
        x = make_random_tensor(4, 10, 80, rng)
        u = rng.random((10, 3))
        serial_ctx = ExecContext(budget=MemoryBudget())
        with serial_ctx:
            s3ttmc(x, u)
        ctx = ExecContext(budget=MemoryBudget())
        with ctx:
            parallel_s3ttmc(x, u, 2, backend="process", ctx=ctx)
        assert ctx.budget.peak > 0
        # Worker-side kernel allocations are visible in the parent's peak.
        assert ctx.budget.peak >= serial_ctx.budget.peak / 4


class TestConcurrencyIsolation:
    """Satellite: concurrent runs under distinct contexts must not
    cross-contaminate traces or budget accounting."""

    def test_threads_with_separate_contexts(self, rng):
        x_a = make_random_tensor(4, 10, 60, rng)
        x_b = make_random_tensor(3, 8, 30, rng)
        contexts = {}
        errors = []
        barrier = threading.Barrier(2)

        def run(name, tensor, iters):
            ctx = ExecContext(
                budget=MemoryBudget(), collector=TraceCollector(), seed=0
            )
            contexts[name] = ctx
            try:
                barrier.wait(timeout=30)
                with ctx:
                    # Negative tol: the convergence test can never fire, so
                    # every run performs exactly `iters` iterations.
                    hooi(tensor, 2, max_iters=iters, tol=-1.0, ctx=ctx)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((name, exc))

        threads = [
            threading.Thread(target=run, args=("a", x_a, 3)),
            threading.Thread(target=run, args=("b", x_b, 5)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors

        a, b = contexts["a"], contexts["b"]
        assert len(a.collector.find("hooi.iteration")) == 3
        assert len(b.collector.find("hooi.iteration")) == 5
        shared = {id(s) for s in a.collector.spans} & {
            id(s) for s in b.collector.spans
        }
        assert not shared, "span records leaked across contexts"
        assert a.budget.peak > 0 and b.budget.peak > 0

    def test_explicit_context_shields_ambient_collector(self, rng):
        """Two threads, two active contexts: each collector records only
        its own thread's spans, though neither call passes ``ctx=``."""
        x = make_random_tensor(3, 8, 40, rng)
        collectors = {"a": TraceCollector(), "b": TraceCollector()}
        errors = []
        barrier = threading.Barrier(2)

        def run(name, iters):
            try:
                with ExecContext(collector=collectors[name]):
                    barrier.wait(timeout=30)
                    hooi(x, 2, max_iters=iters, tol=-1.0)
                    barrier.wait(timeout=30)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((name, exc))

        threads = [
            threading.Thread(target=run, args=(name, iters), name=f"run-{name}")
            for name, iters in (("a", 2), ("b", 3))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        for name, iters in (("a", 2), ("b", 3)):
            col = collectors[name]
            assert len(col.find("hooi.iteration")) == iters
            assert {s.thread for s in col.spans} == {f"run-{name}"}


class TestRunTokens:
    def test_every_context_gets_a_distinct_token(self):
        a, b = ExecContext(), ExecContext()
        assert a.run_token != b.run_token
        assert len(a.run_token) == 8
        int(a.run_token, 16)  # hex-parsable (reseed derivation relies on it)

    def test_derive_mints_fresh_token(self):
        parent = ExecContext(budget=MemoryBudget(), collector=TraceCollector())
        child = parent.derive()
        assert child.run_token != parent.run_token  # child = new logical run

    def test_release_backend_detaches_without_closing(self):
        ctx = ExecContext()
        backend = _DummyBackend()
        ctx.adopt_backend(backend)
        released = ctx.release_backend()
        assert released is backend
        assert not backend.closed
        ctx.close()  # no longer owns it: close() must not touch it
        assert not backend.closed
        assert ctx.release_backend() is None  # idempotent


class TestDerivedJobIsolation:
    """Satellite: two jobs derived from one base context, run concurrently
    on an asyncio loop (the serve execution model) — one tripping its
    deadline must leave the sibling's budget, deadline, and trace
    untouched."""

    def test_deadline_trip_spares_sibling(self, rng):
        from repro.runtime.health import CancelToken, DeadlineExceededError

        x = make_random_tensor(3, 16, 150, rng)
        base = ExecContext(seed=1)
        budget_a, budget_b = MemoryBudget(), MemoryBudget()
        col_a, col_b = TraceCollector(), TraceCollector()
        # Job a's 5000 iterations stop at exact convergence after about
        # 150 (~40 ms on a 2-core host), so its deadline must sit well
        # below that for the trip to be certain.
        job_a = base.derive(
            budget=budget_a,
            collector=col_a,
            deadline_seconds=0.01,
            cancel=CancelToken(),
        )
        job_b = base.derive(
            budget=budget_b, collector=col_b, cancel=CancelToken()
        )

        async def main():
            def run(ctx, iters):
                return hooi(x, 3, max_iters=iters, tol=0.0, seed=2, ctx=ctx)

            return await asyncio.gather(
                asyncio.to_thread(run, job_a, 5000),
                asyncio.to_thread(run, job_b, 3),
                return_exceptions=True,
            )

        result_a, result_b = asyncio.run(main())
        assert isinstance(result_a, DeadlineExceededError)
        assert not isinstance(result_b, BaseException), result_b

        # Sibling b: derived isolation held — its own budget and trace,
        # no deadline, and a run identical to a solo one.
        assert job_b.deadline_seconds is None
        assert not job_b.cancel_token.cancelled
        assert len(col_b.find("hooi.iteration")) == 3
        assert not [e for e in col_b.events if e.name.startswith("health.")]
        assert budget_b.peak > 0
        # a's failure was recorded against a's trace only.
        assert [e for e in col_a.events if e.name.startswith("health.")]
        solo = hooi(x, 3, max_iters=3, tol=0.0, seed=2)
        assert np.array_equal(result_b.factor, solo.factor)

    def test_derive_overrides_budget_and_collector(self):
        base = ExecContext(
            budget=MemoryBudget(), collector=TraceCollector(), seed=9
        )
        own_budget, own_col = MemoryBudget(), TraceCollector()
        child = base.derive(budget=own_budget, collector=own_col)
        assert child.budget is own_budget
        assert child.collector is own_col
        assert child.plans is base.plans  # plans stay shared (pure caches)
        assert child.seed == 9
        # Defaults still inherit.
        plain = base.derive()
        assert plain.budget is base.budget
        assert plain.collector is base.collector


class TestForkSafety:
    def test_reset_forgets_active_context_and_open_spans(self):
        """What a process worker calls first: the thread's inherited
        context stack and span stack are dropped."""
        seen = {}

        def run():
            with ExecContext(budget=MemoryBudget(), collector=TraceCollector()) as ctx:
                begin_span("inherited", collector=ctx.collector)
                assert current_context() is ctx and open_span_depth() == 1
                reset_thread_runtime_state()
                seen["ctx"] = current_context()
                seen["depth"] = open_span_depth()

        t = threading.Thread(target=run)
        t.start()
        t.join(timeout=30)
        assert seen["ctx"] is default_context()
        assert seen["depth"] == 0


class TestRemovedIdioms:
    """The ambient budget stack and the installed collector are gone:
    their idioms fail loudly instead of silently not accounting."""

    @pytest.mark.parametrize("make", [MemoryBudget, TraceCollector])
    def test_budget_and_collector_are_not_context_managers(self, make):
        with pytest.raises((TypeError, AttributeError)):
            with make():
                pass

    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.obs", "active_collector"),
            ("repro.obs", "tracing_enabled"),
            ("repro.obs.trace", "active_collector"),
            ("repro.obs.trace", "tracing_enabled"),
            ("repro.obs.trace", "collector_scope"),
            ("repro.runtime", "current_budget"),
            ("repro.runtime.budget", "current_budget"),
            ("repro.runtime.budget", "request_bytes"),
            ("repro.runtime.budget", "release_bytes"),
            ("repro.runtime.budget", "track_array"),
        ],
    )
    def test_removed_names_fail_to_import(self, module, name):
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})

    @pytest.mark.parametrize(
        "attr", ["effective_budget", "effective_collector", "snapshot", "is_ambient"]
    )
    def test_context_glue_is_gone(self, attr):
        assert not hasattr(ExecContext(), attr)
