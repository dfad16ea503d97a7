"""Backend v2 tests: correctness across backends, plan-cache reuse,
owned-shard reduction, process-worker persistence, and decomposition
wiring."""

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import s3ttmc
from repro.parallel import shm as _shm
from repro.decomp import hooi, hoqri
from repro.obs.trace import TraceCollector
from repro.parallel import (
    BACKENDS,
    ParallelRunReport,
    chunk_row_block,
    make_backend,
    parallel_s3ttmc,
)
from repro.parallel.partition import assign_chunks
from repro.runtime import ExecContext
from tests.conftest import make_random_tensor

REPO = Path(__file__).resolve().parent.parent


def _counter(col, name):
    metric = col.metrics.counter(name)
    return metric.value


class TestBackendCorrectness:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_matches_serial_kernel(self, backend, order, rng):
        x = make_random_tensor(order, 10, 50, rng)
        u = rng.random((10, 3))
        serial = s3ttmc(x, u).unfolding
        got = parallel_s3ttmc(x, u, 3, backend=backend).unfolding
        assert np.allclose(got, serial, atol=1e-10), backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            make_backend("gpu")

    def test_unknown_reduction_rejected(self, rng):
        # The reduction option is gone: every value fails loudly,
        # including the formerly valid "blocked" and "tree".
        x = make_random_tensor(3, 8, 20, rng)
        for reduction in ("atomic", "blocked", "tree"):
            with pytest.raises(TypeError, match="reduction"):
                parallel_s3ttmc(x, rng.random((8, 2)), 2, reduction=reduction)

    @pytest.mark.parametrize("execution", ["serial", "process"])
    def test_unknown_kernel_rejected_before_any_work(self, execution, rng):
        # A bad engine name is the caller's error: it must not spawn
        # workers, retry chunks or degrade the backend on its way out.
        x = make_random_tensor(3, 8, 20, rng)
        col = TraceCollector()
        workers = 2 if execution == "process" else None
        ctx = ExecContext(execution=execution, n_workers=workers, collector=col)
        try:
            with pytest.raises(ValueError, match="bogus"):
                parallel_s3ttmc(x, rng.random((8, 2)), ctx=ctx, kernel="bogus")
            assert ctx.backend is None
        finally:
            ctx.close()
        names = {e.name for e in col.events}
        assert not names & {"parallel.retry", "parallel.fallback"}, names
        assert not col.find("parallel.chunk")

    def test_backend_instance_reused(self, rng):
        x = make_random_tensor(4, 10, 40, rng)
        u1 = rng.random((10, 3))
        u2 = rng.random((10, 3))
        with make_backend("serial", 2) as backend:
            y1 = parallel_s3ttmc(x, u1, backend=backend).unfolding
            y2 = parallel_s3ttmc(x, u2, backend=backend).unfolding
        assert np.allclose(y1, s3ttmc(x, u1).unfolding, atol=1e-10)
        assert np.allclose(y2, s3ttmc(x, u2).unfolding, atol=1e-10)


class TestChunkPlanCache:
    def test_each_chunk_lattice_built_once(self, rng, monkeypatch):
        """Across repeated kernel calls, ``build_plan`` runs once per chunk."""
        import repro.parallel.executor as executor

        x = make_random_tensor(4, 10, 60, rng)
        u = rng.random((10, 3))
        calls = []
        real = executor.build_plan

        def spy(indices, memoize="global", *args, **kwargs):
            calls.append(indices.shape)
            return real(indices, memoize, *args, **kwargs)

        monkeypatch.setattr(executor, "build_plan", spy)
        report = ParallelRunReport()
        parallel_s3ttmc(x, u, 3, backend="serial", report=report)
        n_chunks = len(report.ranges)
        assert len(calls) == n_chunks
        for _ in range(3):
            parallel_s3ttmc(x, u, 3, backend="serial")
        assert len(calls) == n_chunks  # warm: zero symbolic work

    def test_cache_counters(self, rng):
        x = make_random_tensor(4, 10, 60, rng)
        u = rng.random((10, 3))
        col = TraceCollector()
        with ExecContext(collector=col):
            report = ParallelRunReport()
            parallel_s3ttmc(x, u, 2, backend="serial", report=report)
            n_chunks = len(report.ranges)
            assert _counter(col, "parallel.plan_cache.misses") == n_chunks
            warm = ParallelRunReport()
            parallel_s3ttmc(x, u, 2, backend="serial", report=warm)
            assert _counter(col, "parallel.plan_cache.hits") == n_chunks
            assert warm.plan_cache_hits == n_chunks
            assert warm.plan_cache_misses == 0
            assert _counter(col, "parallel.runs.serial") == 2
            assert len(col.find("parallel.plan_build")) == n_chunks

    def test_chunk_row_block_roundtrip(self, rng):
        x = make_random_tensor(4, 12, 40, rng)
        rows, row_map = chunk_row_block(x.indices[5:25], x.dim)
        assert np.array_equal(rows, np.unique(x.indices[5:25]))
        assert np.array_equal(row_map[rows], np.arange(rows.shape[0]))
        untouched = np.setdiff1d(np.arange(x.dim), rows)
        assert np.all(row_map[untouched] == -1)


class TestProcessBackend:
    def test_worker_plan_cache_persists(self, rng):
        x = make_random_tensor(4, 10, 50, rng)
        u = rng.random((10, 3))
        with make_backend("process", 2) as backend:
            cold = ParallelRunReport()
            parallel_s3ttmc(x, u, backend=backend, report=cold)
            assert cold.plan_cache_misses == len(cold.ranges)
            warm = ParallelRunReport()
            parallel_s3ttmc(x, u, backend=backend, report=warm)
            assert warm.plan_cache_misses == 0
            assert warm.plan_cache_hits == len(warm.ranges)

    def test_factor_rewrite_in_place(self, rng):
        """Changed factor values (same shape) reach workers via the shm
        rewrite; results track the new factor."""
        x = make_random_tensor(3, 9, 30, rng)
        u1 = rng.random((9, 2))
        u2 = rng.random((9, 2))
        with make_backend("process", 2) as backend:
            parallel_s3ttmc(x, u1, backend=backend)
            y2 = parallel_s3ttmc(x, u2, backend=backend).unfolding
        assert np.allclose(y2, s3ttmc(x, u2).unfolding, atol=1e-10)

    def test_report_backend_label(self, rng):
        x = make_random_tensor(3, 8, 20, rng)
        u = rng.random((8, 2))
        for name in sorted(BACKENDS):
            report = ParallelRunReport()
            parallel_s3ttmc(x, u, 2, backend=name, report=report)
            assert report.backend == name
            assert report.elapsed > 0


class TestAssignChunks:
    def test_lpt_balances(self):
        assignment = assign_chunks([5.0, 4.0, 3.0, 3.0, 2.0, 1.0], 2)
        loads = [sum([5.0, 4.0, 3.0, 3.0, 2.0, 1.0][i] for i in w) for w in assignment]
        assert abs(loads[0] - loads[1]) <= 2.0
        assert sorted(i for w in assignment for i in w) == list(range(6))

    def test_one_chunk_per_worker(self):
        assignment = assign_chunks([1.0, 1.0, 1.0], 3)
        assert sorted(map(tuple, assignment)) == [(0,), (1,), (2,)]

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            assign_chunks([1.0], 0)


class TestReportDefaults:
    def test_all_fields_default(self):
        report = ParallelRunReport()
        assert report.n_workers == 0
        assert report.ranges == []
        assert report.chunk_seconds == []
        assert report.elapsed == 0.0
        assert report.backend == ""
        assert report.plan_cache_hits == 0
        assert report.plan_cache_misses == 0


class TestDecompositionWiring:
    @pytest.mark.parametrize("execution", ["process"])
    def test_hooi_matches_serial(self, execution, rng):
        x = make_random_tensor(4, 12, 50, rng)
        base = hooi(x, 3, max_iters=3, seed=5)
        with ExecContext(execution=execution, n_workers=2) as ctx:
            got = hooi(x, 3, max_iters=3, seed=5, ctx=ctx)
        assert np.allclose(got.factor, base.factor, atol=1e-9)
        assert np.allclose(got.trace.objective, base.trace.objective, atol=1e-9)

    def test_hoqri_matches_serial(self, rng):
        x = make_random_tensor(4, 12, 50, rng)
        base = hoqri(x, 3, max_iters=3, seed=5)
        with ExecContext(execution="process", n_workers=2) as ctx:
            got = hoqri(x, 3, max_iters=3, seed=5, ctx=ctx)
        assert np.allclose(got.factor, base.factor, atol=1e-9)

    def test_warmed_cache_across_iterations(self, rng):
        """5-iteration HOOI on the process backend builds each chunk's
        lattice exactly once — iterations 2..5 pay zero symbolic cost."""
        x = make_random_tensor(4, 12, 50, rng)
        col = TraceCollector()
        with ExecContext(execution="process", n_workers=2, collector=col) as ctx:
            hooi(x, 3, max_iters=5, tol=0.0, seed=5, ctx=ctx)
        assert len(col.find("parallel.s3ttmc")) == 5
        # Workers report their plan-cache outcome with each partial.
        assert _counter(col, "parallel.plan_cache.misses") == 2  # once per chunk
        assert _counter(col, "parallel.plan_cache.hits") == 4 * 2

    def test_execution_requires_symprop(self, rng):
        x = make_random_tensor(3, 8, 20, rng)
        with pytest.raises(ValueError, match="symprop"):
            hooi(x, 2, kernel="css", ctx=ExecContext(execution="process"))
        with pytest.raises(ValueError, match="symprop"):
            hoqri(x, 2, kernel="nary", ctx=ExecContext(execution="process"))

    def test_n_workers_requires_parallel_execution(self, rng):
        x = make_random_tensor(3, 8, 20, rng)
        with pytest.raises(ValueError, match="n_workers"):
            hooi(x, 2, ctx=ExecContext(n_workers=2))
        with pytest.raises(TypeError, match="n_workers"):
            hooi(x, 2, n_workers=2)  # the removed driver keyword

    def test_unknown_execution(self, rng):
        x = make_random_tensor(3, 8, 20, rng)
        with pytest.raises(ValueError, match="execution"):
            hooi(x, 2, ctx=ExecContext(execution="cluster"))
        with pytest.raises(TypeError, match="execution"):
            hooi(x, 2, execution="process")  # the removed driver keyword


def _removed_thread_spelling(case, rng):
    """Run ``case``'s use of the removed ``thread`` execution mode."""
    if case == "exec-context":
        ExecContext(execution="thread").validate()
    elif case == "make-backend":
        make_backend("thread")
    elif case == "parallel-s3ttmc":
        x = make_random_tensor(3, 8, 20, rng)
        parallel_s3ttmc(x, rng.random((8, 2)), 2, backend="thread")
    elif case == "service":
        from repro.serve import DecompositionService

        DecompositionService(execution="thread")
    elif case == "policy":
        from repro.runtime.faults import parse_policy_spec

        parse_policy_spec("degrade=thread>serial")
    else:
        from repro.serve.__main__ import build_parser

        build_parser().parse_args(["--execution", "thread"])


@pytest.mark.parametrize(
    "case",
    [
        "exec-context",
        "make-backend",
        "parallel-s3ttmc",
        "service",
        "policy",
        "daemon",
    ],
)
def test_removed_thread_mode_fails_loudly(case, rng, capsys):
    # Every spelling of the deleted thread mode raises a typed error that
    # names the two modes left.
    expected = ValueError if case != "daemon" else SystemExit
    with pytest.raises(expected) as excinfo:
        _removed_thread_spelling(case, rng)
    if case == "daemon":
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
    else:
        message = str(excinfo.value)
    assert "'thread'" in message
    assert "'serial'" in message and "'process'" in message


class TestShmRunTokens:
    """Satellite regression: the shm registry is thread-safe and segment
    names are namespaced per run token, so two concurrent process-backend
    runs can never collide on a name or free each other's segments."""

    def test_segment_names_namespaced(self, rng):
        token = "cafe0001"
        arr = rng.random(16)
        shm, view, spec = _shm.create_shared_array(arr, run_token=token)
        try:
            assert shm.name.startswith(f"rp{token}-")
            assert len(shm.name) <= 31  # macOS PSHMNAMLEN
            assert shm.name in _shm.live_segments(token)
            assert shm.name not in _shm.live_segments("beef0002")
        finally:
            shm.close()
        swept = _shm.sweep_run_segments(token)
        assert shm.name in swept
        assert _shm.live_segments(token) == set()

    def test_sweep_touches_only_its_own_token(self, rng):
        a, _, _ = _shm.create_shared_array(rng.random(8), run_token="aaaa0001")
        b, _, _ = _shm.create_shared_array(rng.random(8), run_token="bbbb0002")
        try:
            swept = _shm.sweep_run_segments("aaaa0001")
            assert swept == [a.name]
            assert b.name in _shm.live_segments("bbbb0002")
        finally:
            a.close()
            b.close()
            _shm.sweep_run_segments("bbbb0002")

    def test_backends_get_distinct_tokens(self):
        one = make_backend("process", 2)
        two = make_backend("process", 2)
        try:
            assert one.run_token != two.run_token
        finally:
            one.close()
            two.close()

    def test_concurrent_process_backends_no_leak_no_cross_free(self, rng):
        """Two threads each drive their own process backend over s3ttmc
        at the same time: both results match the serial kernel, and the
        registry returns to its starting state — nothing leaked, and
        neither close() freed the other run's segments."""
        before = set(_shm._LIVE_SEGMENTS)
        x1 = make_random_tensor(3, 10, 50, rng)
        x2 = make_random_tensor(4, 9, 40, rng)
        u1 = rng.random((10, 3))
        u2 = rng.random((9, 2))
        results = {}
        errors = []
        gate = threading.Barrier(2)
        # Workers spawn lazily at first execute — i.e. from the two
        # racing threads below. Pre-fix this deadlocked: a fork landing
        # inside the sibling's segment registration cloned a held
        # resource-tracker lock into the child.
        backends = {"one": make_backend("process", 2), "two": make_backend("process", 2)}

        def drive(key, x, u):
            try:
                gate.wait(timeout=60)
                # Run twice so the second call reuses segments created
                # while the sibling run is mid-flight.
                parallel_s3ttmc(x, u, backend=backends[key])
                results[key] = parallel_s3ttmc(x, u, backend=backends[key]).unfolding
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((key, exc))

        threads = [
            threading.Thread(target=drive, args=("one", x1, u1)),
            threading.Thread(target=drive, args=("two", x2, u2)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        for backend in backends.values():
            backend.close()
        assert not errors, errors
        assert np.allclose(results["one"], s3ttmc(x1, u1).unfolding, atol=1e-10)
        assert np.allclose(results["two"], s3ttmc(x2, u2).unfolding, atol=1e-10)
        assert set(_shm._LIVE_SEGMENTS) == before


class TestSpawnResourceTracker:
    def test_spawn_workers_leave_tracker_silent(self):
        """Spawn workers share the parent's resource tracker, so a worker
        attaching a segment must not unregister it: the creator's later
        unlink would then fail inside the tracker, which prints a
        ``KeyError`` traceback to the run's stderr. The tracker is its
        own process, so only a fresh interpreter's stderr shows it."""
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.parallel import parallel_s3ttmc
            from repro.parallel.backends import ProcessBackend
            from tests.conftest import make_random_tensor

            rng = np.random.default_rng(0)
            x = make_random_tensor(4, 10, 60, rng)
            with ProcessBackend(2, start_method="spawn") as backend:
                for _ in range(3):
                    parallel_s3ttmc(x, rng.random((10, 3)), backend=backend)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO / "src"), str(REPO), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
