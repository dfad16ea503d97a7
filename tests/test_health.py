"""Run-level resilience tests: cancel tokens, deadlines, the numerical-
health watchdog, decomposition-driver integration (checkpoint-on-trip,
bit-for-bit resume), and shared-memory hygiene after abrupt cancellation.

The timing-based tests measure one iteration first and scale their
cancel/deadline windows from it, so they stay deterministic-in-outcome
on slow CI machines (the exact trip iteration may vary; the contracts —
typed error, valid checkpoint, bitwise resume, zero leaks — may not).
"""

import threading
import time

import numpy as np
import pytest

from repro.decomp import hooi, hoqri
from repro.decomp.restarts import reseed_seed
from repro.parallel import ParallelRunReport, parallel_s3ttmc
from repro.parallel import shm as _shm
from repro.runtime import (
    CancelToken,
    DeadlineExceededError,
    ExecContext,
    FallbackPolicy,
    FaultInjector,
    FaultSpec,
    HealthMonitor,
    NumericalHealthError,
    RunCancelledError,
)
from repro.runtime.checkpoint import load_checkpoint
from tests.conftest import make_random_tensor


def _counter(col, name):
    return col.metrics.counter(name).value


class TestCancelToken:
    def test_cancel_idempotent_first_reason_wins(self):
        tok = CancelToken()
        assert not tok.cancelled
        tok.cancel("first")
        tok.cancel("second")
        assert tok.cancelled
        assert tok.reason == "first"

    def test_derive_propagates_parent_cancel(self):
        parent = CancelToken()
        child = parent.derive()
        grandchild = child.derive()
        assert not grandchild.cancelled
        parent.cancel("evicted")
        assert child.cancelled
        assert grandchild.cancelled
        assert grandchild.reason == "evicted"

    def test_derive_after_cancel_is_already_cancelled(self):
        parent = CancelToken()
        parent.cancel("gone")
        assert parent.derive().cancelled

    def test_child_cancel_does_not_reach_parent(self):
        parent = CancelToken()
        child = parent.derive()
        child.cancel("local")
        assert child.cancelled
        assert not parent.cancelled


class TestContextDeadline:
    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ValueError):
            ExecContext(deadline_seconds=0)
        with pytest.raises(ValueError):
            ExecContext(deadline_seconds=-1.0)

    def test_remaining_seconds(self):
        assert ExecContext().remaining_seconds() is None
        ctx = ExecContext(deadline_seconds=60.0)
        remaining = ctx.remaining_seconds()
        assert remaining is not None and 0 < remaining <= 60.0

    def test_check_health_cancel_and_site(self):
        tok = CancelToken()
        ctx = ExecContext(cancel=tok)
        ctx.check_health("anywhere")  # healthy: no raise
        tok.cancel("preempted")
        with pytest.raises(RunCancelledError, match=r"preempted \(at here\)"):
            ctx.check_health("here")

    def test_check_health_deadline(self):
        ctx = ExecContext(deadline_seconds=0.001)
        time.sleep(0.01)
        with pytest.raises(DeadlineExceededError, match="0.001"):
            ctx.check_health("late")

    def test_derive_inherits_absolute_deadline_and_token(self):
        tok = CancelToken()
        ctx = ExecContext(deadline_seconds=30.0, cancel=tok)
        child = ctx.derive()
        # Absolute inheritance: the child's clock does not restart.
        assert child._deadline_at == ctx._deadline_at
        assert child.cancel_token is tok
        tok.cancel("parent says stop")
        with pytest.raises(RunCancelledError):
            child.check_health()
        # An explicit override re-arms from now.
        fresh = ExecContext(deadline_seconds=30.0)
        tightened = fresh.derive(deadline_seconds=5.0)
        assert tightened.deadline_seconds == 5.0
        assert tightened._deadline_at != fresh._deadline_at

    def test_trip_event_emitted_once(self):
        from repro.obs.trace import TraceCollector

        col = TraceCollector()
        tok = CancelToken()
        ctx = ExecContext(collector=col, cancel=tok)
        tok.cancel("once")
        for _ in range(3):
            with pytest.raises(RunCancelledError):
                ctx.check_health("loop")
        assert _counter(col, "health.cancelled") == 1


class TestHealthMonitor:
    POLICY = FallbackPolicy(max_unhealthy_iters=2, max_health_recoveries=2)

    def test_healthy_and_noise_tolerated(self):
        mon = HealthMonitor(self.POLICY)
        assert mon.observe(1.0, np.inf, norm_x_squared=10.0) is None
        assert mon.observe(0.9, 1.0, norm_x_squared=10.0) is None
        # Worsening below the relative-noise tolerance is not a strike.
        assert mon.observe(0.9 + 1e-12, 0.9, norm_x_squared=10.0) is None
        assert mon.strikes == 0

    def test_strikes_reset_on_recovery_of_health(self):
        mon = HealthMonitor(self.POLICY)
        assert mon.observe(float("nan"), 1.0) is None
        assert mon.strikes == 1
        assert mon.observe(0.5, 1.0) is None
        assert mon.strikes == 0

    def test_restore_then_reseed_then_exhausted(self):
        mon = HealthMonitor(self.POLICY)
        directives = []
        for _ in range(2):
            directives.append(mon.observe(float("inf"), 1.0))
        assert directives == [None, "restore"]
        for _ in range(2):
            directives.append(mon.observe(2.0, 1.0))  # diverging
        assert directives[-2:] == [None, "reseed"]
        mon.observe(float("nan"), 1.0)
        with pytest.raises(NumericalHealthError, match="max_health_recoveries"):
            mon.observe(float("nan"), 1.0)

    def test_threshold_clamped_to_one(self):
        mon = HealthMonitor(FallbackPolicy(max_unhealthy_iters=0))
        assert mon.observe(float("nan"), 1.0) == "restore"

    def test_reseed_seed_convention(self):
        assert reseed_seed(5, 2) == 7
        with pytest.raises(ValueError):
            reseed_seed(0, 0)

    def test_reseed_seed_none_uses_context_seed(self):
        with ExecContext(seed=11) as ctx:
            assert reseed_seed(None, 1, ctx=ctx) == 12
            assert reseed_seed(None, 3, ctx=ctx) == 14

    def test_reseed_seed_seedless_runs_are_decorrelated(self):
        # A seedless run must NOT walk base_seed=0's sequence (nor any
        # other seedless run's): bases derive from the unique run token.
        a, b = ExecContext(), ExecContext()
        seq_a = [reseed_seed(None, k, ctx=a) for k in (1, 2, 3)]
        seq_b = [reseed_seed(None, k, ctx=b) for k in (1, 2, 3)]
        assert seq_a != [1, 2, 3]
        assert seq_b != [1, 2, 3]
        assert seq_a != seq_b
        # ... while staying deterministic within one run.
        assert seq_a == [reseed_seed(None, k, ctx=a) for k in (1, 2, 3)]


class TestBackendHealth:
    @pytest.mark.parametrize("backend", ["serial"])
    def test_precancelled_token_raises(self, backend, rng):
        x = make_random_tensor(3, 8, 30, rng)
        tok = CancelToken()
        tok.cancel("never started")
        with ExecContext(n_workers=2, cancel=tok) as ctx:
            with pytest.raises(RunCancelledError, match="never started"):
                parallel_s3ttmc(x, rng.random((8, 3)), ctx=ctx, backend=backend)

    @pytest.mark.parametrize("backend", ["serial"])
    def test_expired_deadline_raises(self, backend, rng):
        x = make_random_tensor(3, 8, 30, rng)
        ctx = ExecContext(n_workers=2, deadline_seconds=0.001)
        time.sleep(0.01)
        with ctx:
            with pytest.raises(DeadlineExceededError):
                parallel_s3ttmc(x, rng.random((8, 3)), ctx=ctx, backend=backend)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_nan_partial_retried_bitwise(self, backend, rng):
        """The finiteness sentinel catches a poisoned partial; the retry
        reproduces the clean run bit-for-bit."""
        x = make_random_tensor(4, 10, 50, rng)
        u = rng.random((10, 3))
        inj = FaultInjector([FaultSpec(site="chunk", kind="nan")])
        report = ParallelRunReport()
        with ExecContext(n_workers=2, faults=inj) as ctx:
            got = parallel_s3ttmc(x, u, ctx=ctx, backend=backend, report=report)
        with ExecContext(n_workers=2) as clean_ctx:
            clean = parallel_s3ttmc(x, u, ctx=clean_ctx, backend=backend)
        assert inj.n_fired == 1
        assert report.nonfinite_partials == 1
        assert np.array_equal(got.data, clean.data)

    def test_persistent_nan_exhausts_to_numerical_health_error(self, rng):
        x = make_random_tensor(3, 8, 30, rng)
        inj = FaultInjector(
            [FaultSpec(site="chunk", kind="nan", times=10**6)]
        )
        pol = FallbackPolicy(max_retries=1, backoff_seconds=0.0, degrade=())
        with ExecContext(faults=inj, fallback=pol) as ctx:
            with pytest.raises(NumericalHealthError, match="non-finite"):
                parallel_s3ttmc(x, rng.random((8, 3)), ctx=ctx, backend="serial")

    def test_slow_fault_completes_but_burns_deadline(self, rng):
        x = make_random_tensor(3, 8, 30, rng)
        u = rng.random((8, 3))
        # Without a deadline, slow is just slow: output is unaffected.
        inj = FaultInjector(
            [FaultSpec(site="chunk", kind="slow", seconds=0.05)]
        )
        with ExecContext(faults=inj) as ctx:
            got = parallel_s3ttmc(x, u, ctx=ctx, backend="serial")
        with ExecContext() as clean_ctx:
            clean = parallel_s3ttmc(x, u, ctx=clean_ctx, backend="serial")
        assert np.array_equal(got.data, clean.data)
        # With one, the sleep pushes the run over its wall budget. The
        # serial backend runs its two chunks sequentially, so the health
        # check before chunk 1 observes the time chunk 0's injected
        # sleep burned and trips the deadline.
        inj2 = FaultInjector(
            [FaultSpec(site="chunk", kind="slow", seconds=1.0)]
        )
        ctx2 = ExecContext(faults=inj2, deadline_seconds=0.3)
        with ctx2:
            with pytest.raises(DeadlineExceededError):
                parallel_s3ttmc(
                    x, u, ctx=ctx2, backend="serial", n_workers=2
                )


class TestDecompResilience:
    """Both drivers run on one iteration loop; each resilience path is
    exercised on each of them."""

    @staticmethod
    def _per_iteration_seconds(algorithm, x, rank):
        tick = time.perf_counter()
        algorithm(x, rank, max_iters=2, seed=3)
        return max(0.01, (time.perf_counter() - tick) / 2)

    @staticmethod
    def _assert_resumes_bitwise(algorithm, x, checkpoint_dir):
        state = load_checkpoint(checkpoint_dir)
        assert state is not None
        n = state.iteration + 1 + 2
        resumed = algorithm(
            x, 6, max_iters=n, tol=0.0, seed=3,
            checkpoint_dir=checkpoint_dir, resume=True,
        )
        straight = algorithm(x, 6, max_iters=n, tol=0.0, seed=3)
        assert np.array_equal(resumed.factor, straight.factor)
        assert np.array_equal(resumed.core.data, straight.core.data)
        assert resumed.trace.objective == straight.trace.objective

    @pytest.mark.parametrize("algorithm", [hooi, hoqri])
    def test_cancel_checkpoints_and_resumes_bitwise(self, algorithm, rng, tmp_path):
        x = make_random_tensor(3, 60, 6000, rng)
        per_iter = self._per_iteration_seconds(algorithm, x, 6)
        tok = CancelToken()
        ctx = ExecContext(cancel=tok)
        timer = threading.Timer(2.5 * per_iter, tok.cancel, args=("evicted",))
        timer.start()
        try:
            with pytest.raises(RunCancelledError, match="evicted"):
                algorithm(
                    x, 6, max_iters=100_000, tol=0.0, seed=3, ctx=ctx,
                    checkpoint_dir=tmp_path, checkpoint_every=10**9,
                )
        finally:
            timer.cancel()
            ctx.close()
        # checkpoint_every never fires; the save came from the trip path.
        self._assert_resumes_bitwise(algorithm, x, tmp_path)

    @pytest.mark.parametrize("algorithm", [hooi, hoqri])
    def test_trip_carries_state_and_resumes_bitwise(self, algorithm, rng, tmp_path):
        """A trip hands the last completed iteration to the caller in
        memory — the same state the trip path saves to disk — and
        ``resume=exc.checkpoint`` continues bit-for-bit."""
        x = make_random_tensor(3, 60, 6000, rng)
        per_iter = self._per_iteration_seconds(algorithm, x, 6)
        tok = CancelToken()
        ctx = ExecContext(cancel=tok)
        timer = threading.Timer(2.5 * per_iter, tok.cancel, args=("evicted",))
        timer.start()
        try:
            with pytest.raises(RunCancelledError) as excinfo:
                algorithm(
                    x, 6, max_iters=100_000, tol=0.0, seed=3, ctx=ctx,
                    checkpoint_dir=tmp_path, checkpoint_every=10**9,
                )
        finally:
            timer.cancel()
            ctx.close()
        state = excinfo.value.checkpoint
        saved = load_checkpoint(tmp_path)
        assert state is not None and saved is not None
        assert state.iteration == saved.iteration
        assert np.array_equal(state.factor, saved.factor)
        assert np.array_equal(state.core_data, saved.core_data)
        n = state.iteration + 1 + 2
        resumed = algorithm(x, 6, max_iters=n, tol=0.0, seed=3, resume=state)
        straight = algorithm(x, 6, max_iters=n, tol=0.0, seed=3)
        assert np.array_equal(resumed.factor, straight.factor)
        assert np.array_equal(resumed.core.data, straight.core.data)
        assert resumed.trace.objective == straight.trace.objective

    def test_trip_before_any_iteration_carries_no_state(self, rng):
        x = make_random_tensor(3, 20, 200, rng)
        tok = CancelToken()
        tok.cancel("evicted")
        ctx = ExecContext(cancel=tok)
        try:
            with pytest.raises(RunCancelledError) as excinfo:
                hooi(x, 3, max_iters=5, seed=3, ctx=ctx)
        finally:
            ctx.close()
        assert excinfo.value.checkpoint is None

    def test_in_memory_resume_checks_config(self, rng, tmp_path):
        x = make_random_tensor(3, 20, 200, rng)
        hooi(x, 3, max_iters=2, seed=3, checkpoint_dir=tmp_path)
        state = load_checkpoint(tmp_path)
        with pytest.raises(ValueError, match="checkpoint config mismatch"):
            hoqri(x, 3, max_iters=4, seed=3, resume=state)
        with pytest.raises(ValueError, match="checkpoint config mismatch"):
            hooi(x, 2, max_iters=4, seed=3, resume=state)

    @pytest.mark.parametrize("algorithm", [hooi, hoqri])
    def test_deadline_checkpoints_before_raising(self, algorithm, rng, tmp_path):
        x = make_random_tensor(3, 60, 6000, rng)
        per_iter = self._per_iteration_seconds(algorithm, x, 6)
        ctx = ExecContext(deadline_seconds=3.0 * per_iter)
        with ctx:
            with pytest.raises(DeadlineExceededError):
                algorithm(
                    x, 6, max_iters=100_000, tol=0.0, seed=3, ctx=ctx,
                    checkpoint_dir=tmp_path, checkpoint_every=10**9,
                )
        self._assert_resumes_bitwise(algorithm, x, tmp_path)

    @pytest.mark.parametrize("algorithm", [hooi, hoqri])
    def test_watchdog_restores_after_transient_nan(self, algorithm, rng):
        from repro.obs.trace import TraceCollector

        x = make_random_tensor(3, 12, 60, rng)
        col = TraceCollector()
        pol = FallbackPolicy(
            check_finite=False, verify_partials=False,
            max_unhealthy_iters=1, max_health_recoveries=2,
        )
        inj = FaultInjector([FaultSpec(site="chunk", kind="nan")])
        ctx = ExecContext(
            execution="process", n_workers=2, fallback=pol, faults=inj,
            collector=col,
        )
        with ctx:
            result = algorithm(x, 4, max_iters=8, seed=3, ctx=ctx)
        assert np.isfinite(result.relative_error)
        assert _counter(col, "health.recovery") == 1
        assert _counter(col, "health.nonfinite") >= 1

    def test_run_without_a_completed_iteration_fails_typed(self, rng):
        # A NaN Y makes the SVD raise, which counts as a strike under the
        # ceiling; with no iteration left there is no core to return.
        x = make_random_tensor(3, 12, 60, rng)
        pol = FallbackPolicy(
            check_finite=False, verify_partials=False,
            max_unhealthy_iters=2, max_health_recoveries=2,
        )
        inj = FaultInjector([FaultSpec(site="chunk", kind="nan")])
        ctx = ExecContext(
            execution="process", n_workers=2, fallback=pol, faults=inj
        )
        with ctx:
            with pytest.raises(NumericalHealthError, match="no iteration"):
                hooi(x, 4, max_iters=1, seed=3, ctx=ctx)

    @pytest.mark.parametrize("algorithm", [hooi, hoqri])
    def test_watchdog_exhausts_to_typed_error(self, algorithm, rng):
        x = make_random_tensor(3, 12, 60, rng)
        pol = FallbackPolicy(
            check_finite=False, verify_partials=False,
            max_unhealthy_iters=1, max_health_recoveries=2,
        )
        inj = FaultInjector(
            [FaultSpec(site="chunk", kind="nan", times=10**6)]
        )
        ctx = ExecContext(
            execution="process", n_workers=2, fallback=pol, faults=inj
        )
        with ctx:
            with pytest.raises(NumericalHealthError):
                algorithm(x, 4, max_iters=50, seed=3, ctx=ctx)


class TestProcessResilience:
    """The ISSUE acceptance scenario plus the shm-hygiene regression."""

    def test_deadline_mid_iteration_checkpoint_resume_no_leaks(
        self, rng, tmp_path
    ):
        x = make_random_tensor(3, 40, 2000, rng)
        before = set(_shm._LIVE_SEGMENTS)
        # Two chunks per iteration (n_chunks == n_workers): after=2 fires
        # on iteration 2's first chunk, whose 30s sleep outlives the
        # deadline — the trip lands mid-iteration with iteration 1 done.
        inj = FaultInjector(
            [FaultSpec(site="chunk", kind="slow", seconds=30.0, after=2)]
        )
        ctx = ExecContext(
            execution="process", n_workers=2, faults=inj,
            deadline_seconds=8.0,
        )
        try:
            with pytest.raises(DeadlineExceededError):
                hooi(
                    x, 4, max_iters=5, tol=0.0, seed=3, ctx=ctx,
                    checkpoint_dir=tmp_path, checkpoint_every=1,
                )
        finally:
            ctx.close()
        assert set(_shm._LIVE_SEGMENTS) == before, "leaked shm segments"
        state = load_checkpoint(tmp_path)
        assert state is not None and state.iteration >= 0

        resume_ctx = ExecContext(execution="process", n_workers=2)
        with resume_ctx:
            resumed = hooi(
                x, 4, max_iters=3, tol=0.0, seed=3, ctx=resume_ctx,
                checkpoint_dir=tmp_path, resume=True,
            )
        straight_ctx = ExecContext(execution="process", n_workers=2)
        with straight_ctx:
            straight = hooi(
                x, 4, max_iters=3, tol=0.0, seed=3, ctx=straight_ctx
            )
        assert np.array_equal(resumed.factor, straight.factor)
        assert set(_shm._LIVE_SEGMENTS) == before

    def test_cancel_mid_first_chunk_leaves_no_segments(self, rng):
        """Regression: a run cancelled before any chunk completes must
        still unlink every worker-created result segment."""
        x = make_random_tensor(3, 20, 300, rng)
        before = set(_shm._LIVE_SEGMENTS)
        tok = CancelToken()
        inj = FaultInjector(
            [FaultSpec(site="chunk", kind="slow", seconds=30.0, times=4)]
        )
        ctx = ExecContext(
            execution="process", n_workers=2, faults=inj, cancel=tok
        )
        timer = threading.Timer(0.5, tok.cancel, args=("mid-flight",))
        timer.start()
        try:
            with pytest.raises(RunCancelledError, match="mid-flight"):
                parallel_s3ttmc(x, rng.random((20, 3)), ctx=ctx)
        finally:
            timer.cancel()
            ctx.close()
        assert set(_shm._LIVE_SEGMENTS) == before, "leaked shm segments"
