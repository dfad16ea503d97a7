"""Fault-tolerance tests: deterministic injection, recovery equivalence,
supervision (hang detection/respawn), OOM bisection, and backend fallback.

The central claim under test: a faulted run *converges to the same
answer* as a clean one. Crash / hang / corrupt recovery re-executes the
exact same chunk into the exact same staging slot, so those paths are
required to be **bitwise** identical; OOM bisection changes the
summation order inside one chunk, so it is required to agree to
floating-point tolerance only.
"""

import numpy as np
import pytest

from repro.decomp import hooi
from repro.obs.trace import TraceCollector
from repro.parallel import ParallelRunReport, parallel_s3ttmc
from repro.runtime.context import ExecContext
from repro.runtime.faults import (
    BackendUnhealthyError,
    FallbackPolicy,
    FaultInjector,
    FaultSpec,
    faults_from_env,
    parse_fault_specs,
)
from tests.conftest import make_random_tensor

#: Fast policy for tests: tiny backoff, tight hang deadline.
FAST = FallbackPolicy(
    backoff_seconds=0.01,
    chunk_timeout=1.0,
    heartbeat_interval=0.1,
)


def _counter(col, name):
    return col.metrics.counter(name).value


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(site="chunk", kind="meteor")

    def test_invalid_times_and_probability(self):
        with pytest.raises(ValueError):
            FaultSpec(site="chunk", kind="crash", times=0)
        with pytest.raises(ValueError):
            FaultSpec(site="chunk", kind="crash", probability=1.5)

    def test_match_filters(self):
        spec = FaultSpec(site="chunk", kind="crash", match={"slot": 2})
        assert spec.matches({"slot": 2, "backend": "serial"})
        assert not spec.matches({"slot": 1})
        assert not spec.matches({})  # missing attributes never match

    def test_payload_shape(self):
        assert FaultSpec(site="chunk", kind="hang", seconds=3.0).payload() == (
            "hang",
            3.0,
        )
        assert FaultSpec(site="chunk", kind="corrupt", scale=0.5).payload() == (
            "corrupt",
            0.5,
        )


class TestParseFaultSpecs:
    def test_grammar(self):
        specs = parse_fault_specs(
            "chunk:crash;chunk:oom:after=2;chunk:hang:seconds=5,slot=1"
        )
        assert [s.kind for s in specs] == ["crash", "oom", "hang"]
        assert specs[1].after == 2
        assert specs[2].seconds == 5.0
        assert specs[2].match == {"slot": 1}

    def test_empty_entries_skipped(self):
        assert parse_fault_specs(";;chunk:crash;") == [
            FaultSpec(site="chunk", kind="crash")
        ]

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_fault_specs("chunk")
        with pytest.raises(ValueError):
            parse_fault_specs("chunk:crash:notakv")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            parse_fault_specs("chunk:meteor")

    def test_malformed_attrs_rejected(self):
        # A bare word where key=value is required.
        with pytest.raises(ValueError, match="must be key=value"):
            parse_fault_specs("chunk:crash:after")
        # Typed options must coerce: 'after' takes an int.
        with pytest.raises(ValueError):
            parse_fault_specs("chunk:crash:after=soon")
        # Constructor-level validation still applies to parsed values.
        with pytest.raises(ValueError):
            parse_fault_specs("chunk:crash:times=0")
        with pytest.raises(ValueError):
            parse_fault_specs("chunk:crash:probability=2")

    def test_duplicate_sites_all_kept(self):
        # Repeating a site is not an error: each entry is its own spec,
        # and the injector checks them in order (first match fires).
        specs = parse_fault_specs("chunk:crash;chunk:crash:after=1")
        assert len(specs) == 2
        assert [s.after for s in specs] == [0, 1]

    def test_duplicate_option_last_wins(self):
        (spec,) = parse_fault_specs("chunk:hang:seconds=1,seconds=2")
        assert spec.seconds == 2.0

    def test_nan_and_slow_kinds_parse(self):
        specs = parse_fault_specs("chunk:nan;chunk:slow:seconds=0.2")
        assert [s.kind for s in specs] == ["nan", "slow"]
        assert specs[1].payload() == ("slow", 0.2)
        assert specs[0].payload() == ("nan", specs[0].scale)

    def test_faults_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert faults_from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "chunk:crash;chunk:oom:after=1")
        inj = faults_from_env()
        assert inj is not None
        assert [s.kind for s in inj.specs] == ["crash", "oom"]


class TestParsePolicySpec:
    def test_grammar(self):
        from repro.runtime.faults import parse_policy_spec

        pol = parse_policy_spec(
            "max_retries=1,chunk_timeout=5,check_finite=off,degrade=process>serial"
        )
        assert pol.max_retries == 1
        assert pol.chunk_timeout == 5.0
        assert pol.check_finite is False
        assert pol.degrade == ("process", "serial")

    def test_chunk_timeout_none_and_empty_degrade(self):
        from repro.runtime.faults import parse_policy_spec

        pol = parse_policy_spec("chunk_timeout=none,degrade=")
        assert pol.chunk_timeout is None
        assert pol.degrade == ()

    def test_errors(self):
        from repro.runtime.faults import parse_policy_spec

        with pytest.raises(ValueError, match="key=value"):
            parse_policy_spec("max_retries")
        with pytest.raises(ValueError, match="unknown policy field"):
            parse_policy_spec("max_turbo=1")
        with pytest.raises(ValueError, match="boolean"):
            parse_policy_spec("check_finite=maybe")

    def test_policy_from_env(self, monkeypatch):
        from repro.runtime.faults import policy_from_env

        monkeypatch.delenv("REPRO_POLICY", raising=False)
        assert policy_from_env() is None
        monkeypatch.setenv("REPRO_POLICY", "max_unhealthy_iters=5")
        pol = policy_from_env()
        assert pol is not None
        assert pol.max_unhealthy_iters == 5
        # Unspecified fields keep their defaults.
        assert pol.verify_partials is FallbackPolicy().verify_partials


class TestFaultInjector:
    def test_after_and_times(self):
        inj = FaultInjector([FaultSpec(site="chunk", kind="crash", after=1, times=2)])
        fired = [inj.arm("chunk", slot=i) is not None for i in range(5)]
        assert fired == [False, True, True, False, False]
        assert inj.n_fired == 2

    def test_site_and_match_filtering(self):
        inj = FaultInjector(
            [FaultSpec(site="chunk", kind="crash", match={"backend": "process"})]
        )
        assert inj.arm("other", backend="process") is None
        assert inj.arm("chunk", backend="serial") is None
        assert inj.arm("chunk", backend="process") is not None

    def test_probability_deterministic_per_seed(self):
        plan = [FaultSpec(site="chunk", kind="crash", probability=0.5, times=100)]
        a = FaultInjector(plan, seed=42)
        b = FaultInjector(plan, seed=42)
        fired_a = [a.arm("chunk", slot=i) is not None for i in range(50)]
        fired_b = [b.arm("chunk", slot=i) is not None for i in range(50)]
        assert fired_a == fired_b
        assert any(fired_a) and not all(fired_a)

    def test_reset_replays_identically(self):
        inj = FaultInjector(
            [FaultSpec(site="chunk", kind="oom", probability=0.3, times=100)],
            seed=7,
        )
        first = [inj.arm("chunk", slot=i) is not None for i in range(20)]
        inj.reset()
        assert [inj.arm("chunk", slot=i) is not None for i in range(20)] == first

    def test_first_matching_spec_wins_but_all_count(self):
        inj = FaultInjector(
            [
                FaultSpec(site="chunk", kind="crash"),
                FaultSpec(site="chunk", kind="oom", after=1),
            ]
        )
        assert inj.arm("chunk").kind == "crash"  # occurrence 0 counts for both
        assert inj.arm("chunk").kind == "oom"


class TestFallbackPolicy:
    def test_backoff_schedule(self):
        p = FallbackPolicy(backoff_seconds=0.1, backoff_multiplier=2.0)
        assert p.backoff(0) == 0.0
        assert p.backoff(1) == pytest.approx(0.1)
        assert p.backoff(3) == pytest.approx(0.4)

    def test_degrade_chain(self):
        p = FallbackPolicy()
        assert p.degrade_to("process") == "serial"
        assert p.degrade_to("serial") is None

    def test_degrade_only_weaker(self):
        p = FallbackPolicy(degrade=("process", "serial"))
        assert p.degrade_to("serial") is None  # never "upgrades"
        assert p.degrade_to("process") == "serial"

    def test_unknown_degrade_backend_rejected(self):
        from repro.runtime.faults import parse_policy_spec

        with pytest.raises(ValueError, match=r"'thrad'.*'serial', 'process'"):
            parse_policy_spec("degrade=thrad>serial")
        with pytest.raises(ValueError, match="degrade"):
            FallbackPolicy(degrade=("gpu",))

    def test_empty_chain_disables(self):
        assert FallbackPolicy(degrade=()).degrade_to("process") is None

    def test_context_carries_policy(self):
        pol = FallbackPolicy(max_retries=7)
        ctx = ExecContext(fallback=pol, faults=FaultInjector())
        assert ctx.effective_fallback() is pol
        child = ctx.derive()
        assert child.effective_fallback() is pol
        assert child.faults is ctx.faults


class TestRecoveryEquivalence:
    """Faulted runs produce the same Y as clean runs, with counters."""

    BITWISE_KINDS = ("crash", "corrupt", "error")

    def _run(self, backend, specs, policy=FAST, rng_seed=3):
        rng = np.random.default_rng(rng_seed)
        x = make_random_tensor(4, 10, 60, rng)
        u = rng.random((10, 3))
        clean = parallel_s3ttmc(x, u, 2, backend=backend).unfolding
        ctx = ExecContext(faults=FaultInjector(specs), fallback=policy)
        report = ParallelRunReport()
        got = parallel_s3ttmc(x, u, 2, backend=backend, ctx=ctx, report=report)
        return clean, got.unfolding, report, ctx.faults

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("kind", BITWISE_KINDS)
    def test_bitwise_recovery(self, backend, kind):
        clean, got, report, injector = self._run(
            backend, [FaultSpec(site="chunk", kind=kind)]
        )
        assert injector.n_fired == 1
        assert np.array_equal(got, clean), (backend, kind)
        assert report.retries == 1
        if kind == "corrupt":
            assert report.corrupt_partials == 1
        if backend == "process" and kind == "crash":
            assert report.respawns == 1

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_oom_bisection_recovery(self, backend):
        clean, got, report, injector = self._run(
            backend, [FaultSpec(site="chunk", kind="oom")]
        )
        assert injector.n_fired == 1
        assert report.oom_splits == 1
        assert report.retries == 0  # a split is not a retry
        # Bisection reorders the summation within one chunk: equal to
        # floating-point tolerance, not bitwise.
        assert np.allclose(got, clean, atol=1e-12), backend

    def test_oom_splits_bitwise_across_backends(self):
        # One supervisor splits depth-first on every backend, so a fault
        # schedule keyed by slot builds the same split trees — and the
        # same sums — whatever runs the tasks.
        specs = [
            FaultSpec(site="chunk", kind="oom", match={"slot": 0}, times=3),
            FaultSpec(site="chunk", kind="oom", match={"slot": 1}, times=1),
        ]
        runs = {
            backend: self._run(backend, specs)
            for backend in ("serial", "process")
        }
        clean, serial, serial_report, _ = runs["serial"]
        assert serial_report.oom_splits == 4
        assert np.allclose(serial, clean, atol=1e-12)
        _, got, report, injector = runs["process"]
        assert injector.n_fired == 4
        assert report.oom_splits == serial_report.oom_splits
        assert np.array_equal(got, serial)

    def test_process_hang_detected_and_respawned(self):
        clean, got, report, injector = self._run(
            "process",
            [FaultSpec(site="chunk", kind="hang", seconds=30.0)],
        )
        assert injector.n_fired == 1
        assert np.array_equal(got, clean)
        assert report.respawns == 1  # hung worker was killed and replaced
        assert report.retries == 1

    @pytest.mark.parametrize("backend", ["serial"])
    def test_inprocess_hang_is_a_stall_not_a_failure(self, backend):
        # Without a supervising process boundary a hang is just a sleep;
        # the chunk still completes and nothing is retried.
        clean, got, report, _ = self._run(
            backend, [FaultSpec(site="chunk", kind="hang", seconds=0.05)]
        )
        assert np.array_equal(got, clean)
        assert report.retries == 0

    def test_multiple_faults_one_run(self):
        # Keyed to (slot, attempt) so the plan is deterministic even though
        # concurrent chunk completion order is not: slot 0 crashes, its
        # retry OOMs and bisects; slot 1's first partial arrives corrupted.
        clean, got, report, injector = self._run(
            "process",
            [
                FaultSpec(site="chunk", kind="crash", match={"slot": 0}),
                FaultSpec(site="chunk", kind="corrupt", match={"slot": 1}),
                FaultSpec(
                    site="chunk", kind="oom", match={"slot": 0, "attempt": 1}
                ),
            ],
        )
        assert injector.n_fired == 3
        assert report.retries >= 2
        assert report.oom_splits == 1
        assert np.allclose(got, clean, atol=1e-12)

    def test_retry_exhaustion_without_fallback_raises(self):
        rng = np.random.default_rng(3)
        x = make_random_tensor(3, 8, 30, rng)
        u = rng.random((8, 2))
        ctx = ExecContext(
            faults=FaultInjector([FaultSpec(site="chunk", kind="crash", times=99)]),
            fallback=FAST.with_(degrade=()),
        )
        with pytest.raises(BackendUnhealthyError):
            parallel_s3ttmc(x, u, 2, backend="serial", ctx=ctx)

    def test_counters_visible_in_collector(self):
        rng = np.random.default_rng(3)
        x = make_random_tensor(4, 10, 60, rng)
        u = rng.random((10, 3))
        ctx = ExecContext(
            faults=FaultInjector(
                [
                    FaultSpec(site="chunk", kind="crash"),
                    FaultSpec(site="chunk", kind="oom", after=2),
                ]
            ),
            fallback=FAST,
            collector=TraceCollector(),
        )
        parallel_s3ttmc(x, u, 2, backend="serial", ctx=ctx)
        col = ctx.collector
        assert _counter(col, "parallel.retries") == 1
        assert _counter(col, "parallel.oom_splits") == 1
        assert len([e for e in col.events if e.name == "parallel.retry"]) == 1
        assert len([e for e in col.events if e.name == "parallel.oom_split"]) == 1


class TestBackendFallback:
    def test_process_degrades_to_serial(self):
        rng = np.random.default_rng(5)
        x = make_random_tensor(4, 10, 60, rng)
        u = rng.random((10, 3))
        clean = parallel_s3ttmc(x, u, 2, backend="serial").unfolding
        # Every process-backend attempt crashes; serial attempts are clean.
        ctx = ExecContext(
            faults=FaultInjector(
                [
                    FaultSpec(
                        site="chunk",
                        kind="crash",
                        times=99,
                        match={"backend": "process"},
                    )
                ]
            ),
            fallback=FAST,
            collector=TraceCollector(),
        )
        report = ParallelRunReport()
        got = parallel_s3ttmc(x, u, 2, backend="process", ctx=ctx, report=report)
        col = ctx.collector
        assert report.fallbacks == 1
        assert report.fallback_chain == ["serial"]
        assert report.backend == "serial"
        assert np.array_equal(got.unfolding, clean)
        assert _counter(col, "parallel.fallbacks") == 1
        fallback_events = [e for e in col.events if e.name == "parallel.fallback"]
        assert len(fallback_events) == 1
        assert fallback_events[0].attrs["from_backend"] == "process"
        assert fallback_events[0].attrs["to_backend"] == "serial"

    def test_degrade_sticks_on_context_backend(self):
        """After a degrade, the context's adopted backend is the weaker one,
        so later calls (e.g. remaining decomposition iterations) skip the
        unhealthy backend entirely."""
        rng = np.random.default_rng(5)
        x = make_random_tensor(4, 10, 50, rng)
        u = rng.random((10, 3))
        ctx = ExecContext(
            execution="process",
            n_workers=2,
            faults=FaultInjector(
                [
                    FaultSpec(
                        site="chunk",
                        kind="crash",
                        times=99,
                        match={"backend": "process"},
                    )
                ]
            ),
            fallback=FAST,
        )
        try:
            parallel_s3ttmc(x, u, ctx=ctx)
            assert ctx.backend is not None
            assert ctx.backend.name == "serial"
            report = ParallelRunReport()
            parallel_s3ttmc(x, u, ctx=ctx, report=report)
            assert report.backend == "serial"
            assert report.fallbacks == 0  # no second degrade needed
        finally:
            ctx.close()


class TestDecompositionUnderFaults:
    def test_hooi_process_with_faults_matches_clean(self, rng):
        """Acceptance: a 5-iteration HOOI on the process backend with an
        injected crash, a hang, and a chunk OOM completes and matches the
        fault-free run (OOM bisection ⇒ fp-tolerance, not bitwise)."""
        x = make_random_tensor(4, 12, 50, rng)
        base = hooi(x, 3, max_iters=5, tol=0.0, seed=5)
        ctx = ExecContext(
            execution="process",
            n_workers=2,
            faults=FaultInjector(
                [
                    FaultSpec(site="chunk", kind="crash"),
                    FaultSpec(site="chunk", kind="hang", seconds=30.0, after=3),
                    FaultSpec(site="chunk", kind="oom", after=6),
                ]
            ),
            fallback=FAST,
        )
        try:
            got = hooi(x, 3, max_iters=5, tol=0.0, seed=5, ctx=ctx)
        finally:
            ctx.close()
        assert ctx.faults.n_fired == 3
        assert np.allclose(got.factor, base.factor, atol=1e-9)
        assert np.allclose(got.trace.objective, base.trace.objective, atol=1e-9)

    def test_hooi_bitwise_when_no_oom_fault(self, rng):
        x = make_random_tensor(4, 12, 50, rng)
        base = hooi(x, 3, max_iters=3, tol=0.0, seed=5)
        ctx = ExecContext(
            execution="process",
            n_workers=2,
            faults=FaultInjector(
                [
                    FaultSpec(site="chunk", kind="crash"),
                    FaultSpec(site="chunk", kind="corrupt", after=2),
                ]
            ),
            fallback=FAST,
        )
        try:
            got = hooi(x, 3, max_iters=3, tol=0.0, seed=5, ctx=ctx)
        finally:
            ctx.close()
        with ExecContext(execution="process", n_workers=2) as clean_ctx:
            clean_parallel = hooi(x, 3, max_iters=3, tol=0.0, seed=5, ctx=clean_ctx)
        assert ctx.faults.n_fired == 2
        # Recovery is bitwise against the same-backend clean run.
        assert np.array_equal(got.factor, clean_parallel.factor)
        assert np.allclose(got.factor, base.factor, atol=1e-9)
