"""End-to-end tests for the serve front door: admission before any
allocation, content-addressed caching (and the pattern/content aliasing
regression), per-job isolation, cancel/preempt/resume, shutdown hygiene,
and the ``python -m repro.serve`` daemon round-trip."""

import asyncio
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import content_fingerprint, s3ttmc
from repro.core.plan import pattern_fingerprint
from repro.decomp import hooi, hoqri
from repro.parallel import shm as _shm
from repro.runtime.budget import MemoryLimitError
from repro.runtime.faults import BackendUnhealthyError, WorkerCrashError
from repro.runtime.health import (
    DeadlineExceededError,
    HealthError,
    NumericalHealthError,
    RunCancelledError,
)
from repro.serve import (
    AdmissionError,
    DecompositionService,
    InvalidJobError,
    JobSpec,
    QueueFullError,
    QuotaExceededError,
    ServeError,
    ServiceClosedError,
    TenantQuota,
    UnknownJobError,
    predict_job_peak_bytes,
)
from repro.serve.client import connect_from_banner
from repro.serve.wire import spec_from_wire, spec_to_wire
from repro.verify.chaos import TYPED_FAILURES
from tests.conftest import make_random_tensor


def run(coro):
    return asyncio.run(coro)


def hooi_spec(tensor, rank, **kw):
    kw.setdefault("max_iters", 5)
    return JobSpec(kind="hooi", tensor=tensor, rank=rank, **kw)


# ---------------------------------------------------------------------------
# Typed errors cross the job-process pipe
# ---------------------------------------------------------------------------

#: Constructor arguments of every error a served job can end with.
ERROR_ARGS = {
    DeadlineExceededError: (1.5, "s"),
    RunCancelledError: ("stop", "s"),
    NumericalHealthError: ("objective diverged",),
    BackendUnhealthyError: ("process", "dead"),
    MemoryLimitError: ("Y", 100, 50, 10),
    WorkerCrashError: ("worker 1 exited",),
    ServeError: ("serve failed",),
    AdmissionError: ("refused",),
    QuotaExceededError: ("acme", 4096, 2048),
    QueueFullError: ("acme", 32, 32),
    InvalidJobError: ("bad spec",),
    UnknownJobError: ("job-000001",),
    ServiceClosedError: ("service is closed",),
}


@pytest.mark.parametrize(
    "cls", sorted(set(TYPED_FAILURES) | set(ERROR_ARGS), key=lambda c: c.__name__)
)
def test_typed_errors_survive_pickling(cls):
    exc = cls(*ERROR_ARGS[cls])
    if isinstance(exc, HealthError):
        exc.checkpoint = ("iteration", 3)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)


# ---------------------------------------------------------------------------
# Specs and admission
# ---------------------------------------------------------------------------


class TestJobSpec:
    def test_unknown_kind_rejected(self, rng):
        x = make_random_tensor(3, 8, 30, rng)
        spec = JobSpec(kind="cp-als", tensor=x, rank=2)
        with pytest.raises(InvalidJobError, match="unknown job kind"):
            spec.validate()
        assert isinstance(InvalidJobError("x"), ValueError)

    def test_s3ttmc_requires_matching_factor(self, rng):
        x = make_random_tensor(3, 8, 30, rng)
        with pytest.raises(InvalidJobError, match="require a factor"):
            JobSpec(kind="s3ttmc", tensor=x).validate()
        with pytest.raises(InvalidJobError, match="does not match tensor dim"):
            JobSpec(kind="s3ttmc", tensor=x, factor=np.ones((5, 2))).validate()

    @pytest.mark.parametrize(
        "kind,bad,good",
        [
            ("hoqri", "compiled", ("symprop", "nary")),
            ("s3ttmc", "symprop", ("generic", "compiled")),
            ("hooi", "compiled-v2", ("symprop", "css")),
        ],
    )
    def test_kernel_checked_per_kind_at_submit(self, kind, bad, good, rng):
        # A kernel the kind's driver would reject never reaches the queue:
        # submit raises InvalidJobError and nothing is admitted.
        x = make_random_tensor(3, 8, 30, rng)
        kw = {"factor": np.ones((8, 2))} if kind == "s3ttmc" else {"rank": 2}
        for kernel in good:
            JobSpec(kind=kind, tensor=x, kernel=kernel, **kw).validate()

        async def main():
            async with DecompositionService() as svc:
                with pytest.raises(InvalidJobError, match=repr(bad)):
                    await svc.submit(JobSpec(kind=kind, tensor=x, kernel=bad, **kw))
                return svc.stats()

        stats = run(main())
        assert stats["counters"]["submitted"] == 0
        assert stats["states"] == {}

    @pytest.mark.parametrize("kind", ["hooi", "hoqri"])
    def test_iteration_and_rank_limits_checked_at_submit(self, kind, rng):
        # max_iters < 1 and rank > dim used to be admitted and fail only
        # once running (an untyped AssertionError for max_iters=0).
        x = make_random_tensor(3, 8, 30, rng)
        bad = [
            (JobSpec(kind=kind, tensor=x, rank=2, max_iters=0), "max_iters"),
            (JobSpec(kind=kind, tensor=x, rank=9), "exceeds the tensor dimension"),
        ]
        JobSpec(kind=kind, tensor=x, rank=8, max_iters=1).validate()

        async def main():
            async with DecompositionService() as svc:
                for spec, match in bad:
                    with pytest.raises(InvalidJobError, match=match):
                        await svc.submit(spec)
                return svc.stats()

        stats = run(main())
        assert stats["counters"]["submitted"] == 0
        assert stats["states"] == {}

    def test_svd_method_checked_at_submit(self, rng):
        # An unknown method used to be admitted and fail only once
        # running, with a bare ValueError from the driver.
        x = make_random_tensor(3, 8, 30, rng)
        assert hooi_spec(x, 2).driver_kwargs()["svd_method"] == "compact"
        for method in ("expand", "compact"):
            hooi_spec(x, 2, svd_method=method).validate()
        # Only hooi reads svd_method.
        JobSpec(kind="hoqri", tensor=x, rank=2, svd_method="power").validate()
        bad = [hooi_spec(x, 2, svd_method=m) for m in ("power", "gram")]
        # The wire decodes to the same spec, so the daemon refuses it too.
        bad.append(spec_from_wire(spec_to_wire(bad[0])))

        async def main():
            async with DecompositionService() as svc:
                for spec in bad:
                    with pytest.raises(InvalidJobError, match="svd_method"):
                        await svc.submit(spec)
                return svc.stats()

        stats = run(main())
        assert stats["counters"]["submitted"] == 0
        assert stats["states"] == {}

    def test_determinism_classification(self, rng):
        x = make_random_tensor(3, 8, 30, rng)
        assert JobSpec(kind="s3ttmc", tensor=x, factor=np.ones((8, 2))).deterministic()
        assert not hooi_spec(x, 2).deterministic()  # seedless random init
        assert hooi_spec(x, 2, seed=7).deterministic()
        assert hooi_spec(x, 2, init="hosvd").deterministic()

    def test_wire_round_trip(self, rng):
        x = make_random_tensor(3, 8, 30, rng)
        spec = hooi_spec(x, 2, seed=3, tenant="acme", deadline_seconds=5.0)
        back = spec_from_wire(spec_to_wire(spec))
        assert back.config_key() == spec.config_key()
        assert back.tenant == "acme"
        assert content_fingerprint(back.tensor) == content_fingerprint(x)

    def test_wire_canonicalizes_unsorted_rows(self):
        # A client may send valid rows unsorted and in any order; the
        # decoded tensor, and so the s3ttmc, must be the canonical one.
        x = repro.random_sparse_symmetric(order=4, dim=30, unnz=300, seed=0)
        u = np.random.default_rng(1).random((30, 3))
        payload = spec_to_wire(JobSpec(kind="s3ttmc", tensor=x, factor=u))
        rng = np.random.default_rng(2)
        perm = rng.permutation(x.unnz)
        payload["tensor"]["indices"] = [
            rng.permutation(row).tolist() for row in x.indices[perm]
        ]
        payload["tensor"]["values"] = x.values[perm].tolist()
        back = spec_from_wire(payload)
        assert np.array_equal(back.tensor.indices, x.indices)
        assert np.array_equal(back.tensor.values, x.values)
        assert np.array_equal(s3ttmc(back.tensor, u).data, s3ttmc(x, u).data)

    def test_nonfinite_inputs_rejected(self, rng):
        x = make_random_tensor(3, 8, 30, rng)
        values = x.values.copy()
        values[4] = np.nan
        nan_x = repro.SparseSymmetricTensor(3, 8, x.indices, values)
        with pytest.raises(InvalidJobError, match="tensor values must be finite"):
            hooi_spec(nan_x, 2).validate()
        factor = np.ones((8, 2))
        factor[1, 1] = np.inf
        with pytest.raises(InvalidJobError, match="factor must be finite"):
            JobSpec(kind="s3ttmc", tensor=x, factor=factor).validate()

    def test_prediction_needs_no_allocation(self, rng):
        x = make_random_tensor(3, 16, 120, rng)
        predicted = predict_job_peak_bytes(hooi_spec(x, 3))
        # At least the operands themselves.
        assert predicted >= x.unnz * (8 * x.order + 8) + x.dim * 3 * 8


class TestContentFingerprint:
    def test_same_pattern_different_values_distinct(self, rng):
        """Satellite regression: the result cache must key on *content*.

        ``pattern_fingerprint`` intentionally identifies these two
        tensors (they share a plan); ``content_fingerprint`` must not.
        """
        a = make_random_tensor(3, 10, 60, rng)
        b = repro.SparseSymmetricTensor(
            a.order, a.dim, a.indices.copy(), a.values + 1.0
        )
        assert pattern_fingerprint(a.indices) == pattern_fingerprint(b.indices)
        assert content_fingerprint(a) != content_fingerprint(b)
        assert content_fingerprint(a) == content_fingerprint(
            repro.SparseSymmetricTensor(
                a.order, a.dim, a.indices.copy(), a.values.copy()
            )
        )

    def test_dimension_changes_fingerprint(self, rng):
        a = make_random_tensor(3, 10, 60, rng)
        wider = repro.SparseSymmetricTensor(
            a.order, a.dim + 1, a.indices.copy(), a.values.copy()
        )
        assert content_fingerprint(a) != content_fingerprint(wider)


# ---------------------------------------------------------------------------
# Submit / result / cache
# ---------------------------------------------------------------------------


class TestSubmitResult:
    def test_hooi_bitwise_equal_to_direct(self, rng):
        x = make_random_tensor(3, 12, 80, rng)
        spec = hooi_spec(x, 3, seed=7)

        async def main():
            async with DecompositionService() as svc:
                job = await svc.submit(spec)
                return await svc.result(job)

        got = run(main())
        want = hooi(x, 3, **spec.driver_kwargs())
        assert np.array_equal(got.factor, want.factor)
        assert got.relative_error == want.relative_error

    def test_s3ttmc_bitwise_equal_to_direct(self, rng):
        x = make_random_tensor(3, 12, 80, rng)
        u = rng.random((12, 3))

        async def main():
            async with DecompositionService() as svc:
                job = await svc.submit(JobSpec(kind="s3ttmc", tensor=x, factor=u))
                return await svc.result(job)

        got = run(main())
        want = s3ttmc(x, u)
        assert np.array_equal(np.asarray(got.data), np.asarray(want.data))

    def test_duplicate_submission_hits_cache(self, rng):
        x = make_random_tensor(3, 12, 80, rng)

        async def main():
            async with DecompositionService() as svc:
                first = await svc.submit(hooi_spec(x, 3, seed=7))
                result = await svc.result(first)
                # Content-identical duplicate: fresh tensor object, same bytes.
                dup = repro.SparseSymmetricTensor(
                    x.order, x.dim, x.indices.copy(), x.values.copy()
                )
                second = await svc.submit(hooi_spec(dup, 3, seed=7))
                status = svc.status(second)
                dup_result = await svc.result(second)
                return result, status, dup_result, svc.stats()

        result, status, dup_result, stats = run(main())
        assert status.state == "done" and status.cache_hit
        assert dup_result is result  # served the cached object, no rerun
        assert stats["counters"]["cache_hits"] == 1
        assert stats["counters"]["completed"] == 1
        assert stats["interner"]["hits"] == 1

    def test_seedless_jobs_never_cached(self, rng):
        x = make_random_tensor(3, 12, 80, rng)

        async def main():
            async with DecompositionService() as svc:
                a = await svc.submit(hooi_spec(x, 3))
                b = await svc.submit(hooi_spec(x, 3))
                await svc.result(a), await svc.result(b)
                return svc.status(b).cache_hit, svc.stats()

        hit, stats = run(main())
        assert not hit
        assert stats["counters"]["cache_hits"] == 0
        assert stats["counters"]["completed"] == 2

    def test_same_pattern_different_values_not_aliased(self, rng):
        """Satellite regression, service level: two tensors sharing a
        sparsity pattern but holding different values must not share a
        cache entry (pre-fix, a pattern-keyed cache aliased them)."""
        a = make_random_tensor(3, 12, 80, rng)
        b = repro.SparseSymmetricTensor(
            a.order, a.dim, a.indices.copy(), a.values * 2.0 + 0.5
        )

        kwargs = hooi_spec(a, 3, seed=7).driver_kwargs()

        async def main():
            async with DecompositionService() as svc:
                ja = await svc.submit(hooi_spec(a, 3, seed=7))
                jb = await svc.submit(hooi_spec(b, 3, seed=7))
                ra, rb = await svc.result(ja), await svc.result(jb)
                return ra, rb, svc.status(jb).cache_hit

        ra, rb, b_hit = run(main())
        assert not b_hit
        assert not np.array_equal(ra.factor, rb.factor)
        assert np.array_equal(ra.factor, hooi(a, 3, **kwargs).factor)
        assert np.array_equal(rb.factor, hooi(b, 3, **kwargs).factor)

    def test_quota_rejection_is_typed_and_pre_allocation(self, rng):
        x = make_random_tensor(3, 20, 300, rng)
        quota = TenantQuota(memory_bytes=1024)

        async def main():
            async with DecompositionService(quotas={"smallco": quota}) as svc:
                with pytest.raises(QuotaExceededError) as excinfo:
                    await svc.submit(hooi_spec(x, 4, seed=1, tenant="smallco"))
                return excinfo.value, svc.stats()

        err, stats = run(main())
        assert err.tenant == "smallco"
        assert err.limit_bytes == 1024
        assert err.predicted_bytes > 1024
        assert stats["counters"]["rejected"] == 1
        assert stats["counters"]["submitted"] == 0  # refused before intake
        assert stats["states"] == {}  # no record, no allocation

    def test_unknown_job_id(self):
        async def main():
            async with DecompositionService() as svc:
                with pytest.raises(UnknownJobError):
                    svc.status("job-999999")

        run(main())

    def test_finished_records_are_bounded(self, rng, monkeypatch):
        """Past ``MAX_FINISHED_RECORDS`` the oldest finished record is
        evicted; per-state counts still cover every job."""
        from repro.serve import service as service_module

        monkeypatch.setattr(service_module, "MAX_FINISHED_RECORDS", 2)
        x = make_random_tensor(3, 10, 40, rng)
        spec = JobSpec(kind="s3ttmc", tensor=x, factor=rng.random((10, 2)))

        async def main():
            async with DecompositionService(pool_size=1) as svc:
                jobs = [await svc.submit(spec)]
                await svc.result(jobs[0])
                # Cache hits: each finishes inside submit.
                jobs += [await svc.submit(spec) for _ in range(3)]
                for job in jobs[:2]:
                    with pytest.raises(UnknownJobError):
                        svc.status(job)
                kept = [svc.status(job).state for job in jobs[2:]]
                return kept, svc.stats()

        kept, stats = run(main())
        assert kept == ["done", "done"]
        assert stats["states"] == {"done": 4}
        assert stats["counters"]["cache_hits"] == 3


# ---------------------------------------------------------------------------
# Cancel / deadline / preempt
# ---------------------------------------------------------------------------


class TestJobControl:
    def test_cancel_queued_and_running(self, rng):
        x = make_random_tensor(3, 16, 150, rng)

        async def main():
            async with DecompositionService(pool_size=1) as svc:
                # seed=0 is a monotone-objective init on this tensor, so
                # the health watchdog can't fire before the cancel does.
                running = await svc.submit(
                    hooi_spec(x, 3, seed=0, max_iters=5000, tol=0.0,
                              use_cache=False)
                )
                queued = await svc.submit(
                    hooi_spec(x, 2, max_iters=5000, tol=0.0, use_cache=False)
                )
                assert svc.cancel(queued)  # never started
                while svc.status(running).state == "queued":
                    await asyncio.sleep(0.01)
                assert svc.cancel(running)  # interrupted mid-run
                with pytest.raises(RunCancelledError):
                    await svc.result(queued)
                with pytest.raises(RunCancelledError):
                    await svc.result(running)
                return svc.stats()

        stats = run(main())
        assert stats["counters"]["cancelled"] == 2
        assert stats["counters"]["completed"] == 0
        assert stats["counters"]["budgets_undrained"] == 0

    def test_deadline_trips_one_job_spares_sibling(self, rng):
        """A tenant tripping its deadline must not disturb a sibling job
        running concurrently in the same service (own budget, own deadline,
        own cancel token)."""
        x = make_random_tensor(3, 16, 150, rng)
        healthy_spec = hooi_spec(x, 2, seed=4, max_iters=4, use_cache=False)

        async def main():
            async with DecompositionService(pool_size=2) as svc:
                # Seed pinned to a monotone-objective init: a seedless
                # (or oscillating) init can trip the numerical-health
                # watchdog before the deadline does, and this test is
                # about the deadline.
                doomed = await svc.submit(
                    hooi_spec(
                        x, 3, seed=0, max_iters=5000, tol=0.0,
                        deadline_seconds=0.05, use_cache=False,
                    )
                )
                healthy = await svc.submit(healthy_spec)
                with pytest.raises(DeadlineExceededError):
                    await svc.result(doomed)
                result = await svc.result(healthy)
                return svc.status(doomed), svc.status(healthy), result, svc.stats()

        doomed, healthy, result, stats = run(main())
        assert doomed.state == "failed"
        assert doomed.error_type == "DeadlineExceededError"
        assert healthy.state == "done" and healthy.error_type is None
        want = hooi(x, 2, **healthy_spec.driver_kwargs())
        assert np.array_equal(result.factor, want.factor)
        assert stats["counters"]["budgets_undrained"] == 0

    def test_preempt_resumes_bitwise(self, rng):
        x = make_random_tensor(3, 20, 250, rng)
        spec = hooi_spec(x, 4, seed=3, max_iters=40, tol=0.0, use_cache=False)

        async def main():
            async with DecompositionService(pool_size=1) as svc:
                job = await svc.submit(spec)
                # Wait for it to start, then checkpoint-preempt it once.
                while svc.status(job).state == "queued":
                    await asyncio.sleep(0.005)
                preempted = svc.preempt(job)
                result = await svc.result(job)
                return preempted, svc.status(job), result

        preempted, status, result = run(main())
        want = hooi(x, 4, **spec.driver_kwargs())
        assert np.array_equal(result.factor, want.factor)
        if preempted:  # raced completion is legal but should be rare
            assert status.preemptions >= 1
        assert status.state == "done"

    def test_preempt_resumes_in_memory(self, rng, monkeypatch, tmp_path):
        """A preempted, resumed job writes no checkpoint and creates no
        spool directory: its sweep state stays in memory."""
        import tempfile

        import repro.decomp._sweep as sweep_module

        saves = []
        monkeypatch.setattr(
            sweep_module, "save_checkpoint", lambda *a, **k: saves.append(a)
        )
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        # About a second of iterations: the preemption lands mid-run.
        x = make_random_tensor(3, 60, 6000, rng)
        spec = hooi_spec(x, 6, seed=3, max_iters=300, tol=0.0, use_cache=False)

        async def main():
            async with DecompositionService(pool_size=1) as svc:
                job = await svc.submit(spec)
                while svc.status(job).state == "queued":
                    await asyncio.sleep(0.005)
                await asyncio.sleep(0.1)  # let some iterations complete
                preempted = svc.preempt(job)
                result = await svc.result(job)
                return preempted, svc.status(job), result

        preempted, status, result = run(main())
        assert preempted and status.preemptions == 1
        assert status.state == "done"
        want = hooi(x, 6, **spec.driver_kwargs())
        assert np.array_equal(result.factor, want.factor)
        assert result.trace.objective == want.trace.objective
        assert saves == []
        assert result.timer.counts.get("checkpoint", 0) == 0
        assert list(tmp_path.glob("repro-serve-spool-*")) == []
        assert list(tmp_path.rglob("*checkpoint*")) == []

    def test_preempt_while_draining_still_finishes(self, rng):
        """A job preempted after close() began draining re-queues behind
        nothing: it resumes, finishes bitwise, and close() returns."""
        x = make_random_tensor(3, 60, 6000, rng)
        spec = hooi_spec(x, 6, seed=3, max_iters=300, tol=0.0, use_cache=False)

        async def main():
            svc = await DecompositionService(pool_size=1).start()
            job = await svc.submit(spec)
            while svc.status(job).state == "queued":
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.1)  # let some iterations complete
            closing = asyncio.create_task(svc.close())
            await asyncio.sleep(0)  # close() is now draining
            preempted = svc.preempt(job)
            await asyncio.wait_for(closing, 60)
            result = await asyncio.wait_for(svc.result(job), 60)
            return preempted, svc.status(job), result

        preempted, status, result = run(main())
        assert preempted and status.preemptions == 1
        assert status.state == "done"
        want = hooi(x, 6, **spec.driver_kwargs())
        assert np.array_equal(result.factor, want.factor)

    def test_kernel_jobs_not_preemptible(self, rng):
        x = make_random_tensor(3, 12, 80, rng)
        u = rng.random((12, 3))

        async def main():
            async with DecompositionService() as svc:
                job = await svc.submit(JobSpec(kind="s3ttmc", tensor=x, factor=u))
                await svc.result(job)
                return svc.preempt(job)

        assert run(main()) is False


    def test_queued_count_follows_cancel(self, rng):
        """A cancelled queued job frees its tenant's queue place: the next
        submission is admitted and the one after it is refused."""
        x = make_random_tensor(3, 16, 150, rng)

        def long_job(seed):
            return hooi_spec(x, 3, seed=seed, max_iters=5000, tol=0.0, use_cache=False)

        async def main():
            quota = TenantQuota(max_queued=2)
            async with DecompositionService(pool_size=1, default_quota=quota) as svc:
                running = await svc.submit(long_job(0))
                while svc.status(running).state == "queued":
                    await asyncio.sleep(0.01)
                queued = [await svc.submit(long_job(s)) for s in (1, 2)]
                with pytest.raises(QueueFullError):
                    await svc.submit(long_job(3))
                assert svc.cancel(queued[0])
                await svc.submit(long_job(4))
                with pytest.raises(QueueFullError) as excinfo:
                    await svc.submit(long_job(5))
                await svc.close(drain=False)
                return excinfo.value, svc.stats()

        refused, stats = run(main())
        assert (refused.queued, refused.limit) == (2, 2)
        assert stats["counters"]["rejected"] == 2
        assert stats["counters"]["submitted"] == 4
        assert stats["counters"]["cancelled"] == 4


class TestJobProcesses:
    """Each slot runs its jobs in one job process of its own."""

    @staticmethod
    def slot_children():
        return [
            p for p in multiprocessing.active_children()
            if p.name.startswith("serve-slot-")
        ]

    def test_jobs_run_in_pool_size_processes(self, rng):
        x = make_random_tensor(3, 12, 80, rng)
        specs = [
            JobSpec(kind="hoqri", tensor=x, rank=3, seed=s, max_iters=5)
            for s in range(4)
        ]

        async def main():
            async with DecompositionService(pool_size=2) as svc:
                jobs = [await svc.submit(spec) for spec in specs]
                results = [await svc.result(job) for job in jobs]
                return results, svc.stats()["pool"]

        results, pool = run(main())
        pids = pool["pids"]
        assert len(set(pids)) == pool["size"] == 2
        assert os.getpid() not in pids and None not in pids
        for spec, got in zip(specs, results):
            want = hoqri(x, 3, **spec.driver_kwargs())
            assert np.array_equal(got.factor, want.factor)

    def test_failed_job_keeps_the_job_process_traceback(self):
        """A job failing inside ``repro.decomp`` raises the error the
        direct call raises, caused by the job process's traceback."""
        x = repro.SparseSymmetricTensor(1, 5, np.array([[0], [2]]), np.array([1.0, 2.0]))
        spec = JobSpec(kind="hoqri", tensor=x, rank=2, max_iters=2, seed=0)
        with pytest.raises(ValueError) as direct:
            hoqri(x, 2, **spec.driver_kwargs())

        async def main():
            async with DecompositionService(pool_size=1) as svc:
                job = await svc.submit(spec)
                with pytest.raises(ValueError) as served:
                    await svc.result(job)
                return served.value

        error = run(main())
        assert type(error) is ValueError and str(error) == str(direct.value)
        cause = error.__cause__
        assert isinstance(cause, RuntimeError)
        assert "serve-slot-0" in str(cause)
        frame = direct.traceback[-1]
        assert f'{Path(frame.path).name}", line {frame.lineno + 1}, in {frame.name}' in str(cause)
        assert "repro/decomp/" in str(cause).replace(os.sep, "/")

    def test_killed_job_process_fails_only_its_job(self, rng):
        x = make_random_tensor(3, 16, 150, rng)
        doomed_spec = JobSpec(
            kind="hoqri", tensor=x, rank=3, seed=0, max_iters=100000, tol=0.0,
            use_cache=False,
        )
        y = make_random_tensor(3, 40, 2000, rng)
        # Long enough (tens of ms) that both slots are seen busy at once.
        specs = [
            JobSpec(kind="hoqri", tensor=y, rank=4, seed=s, max_iters=60,
                    tol=0.0, use_cache=False)
            for s in (1, 2, 3)
        ]

        async def main():
            async with DecompositionService(pool_size=2) as svc:
                doomed = await svc.submit(doomed_spec)
                while svc.status(doomed).state == "queued":
                    await asyncio.sleep(0.005)
                pool = svc.stats()["pool"]
                slot = pool["running"].index(doomed)
                killed = pool["pids"][slot]
                sibling = await svc.submit(specs[0])
                while svc.status(sibling).state == "queued":
                    await asyncio.sleep(0.005)
                os.kill(killed, signal.SIGKILL)
                with pytest.raises(BackendUnhealthyError) as excinfo:
                    await svc.result(doomed)
                results = {sibling: await svc.result(sibling)}
                # Both slots take one of the next two jobs; the killed
                # slot's runs in a fresh process.
                later = [await svc.submit(spec) for spec in specs[1:]]
                ran_on_killed_slot = None
                while ran_on_killed_slot is None and any(
                    svc.status(job).state != "done" for job in later
                ):
                    ran_on_killed_slot = svc.stats()["pool"]["running"][slot]
                    await asyncio.sleep(0.002)
                for job in later:
                    results[job] = await svc.result(job)
                stats = svc.stats()
                return (excinfo.value, slot, killed, results, later,
                        ran_on_killed_slot, stats, svc.status(doomed))

        (error, slot, killed, results, later, ran_on_killed_slot, stats,
         doomed) = run(main())
        assert doomed.state == "failed"
        assert doomed.error_type == "BackendUnhealthyError"
        assert error.backend == f"serve-slot-{slot}"
        assert "exit code -9" in str(error)
        assert ran_on_killed_slot in later
        assert stats["pool"]["pids"][slot] not in (None, killed)
        assert stats["counters"]["failed"] == 1
        assert stats["counters"]["completed"] == 3
        for spec, got in zip(specs, results.values()):
            want = hoqri(y, 4, **spec.driver_kwargs())
            assert np.array_equal(got.factor, want.factor)

    def test_sigint_leaves_job_processes_alive(self, rng, capfd):
        """A terminal's Ctrl-C reaches every process of the group; the
        service owns shutdown, so its idle job processes live on."""
        x = make_random_tensor(3, 12, 80, rng)

        async def main():
            async with DecompositionService(pool_size=2) as svc:
                first = await svc.submit(
                    JobSpec(kind="s3ttmc", tensor=x, factor=rng.random((12, 3)))
                )
                await svc.result(first)
                pids = svc.stats()["pool"]["pids"]
                for pid in pids:
                    os.kill(pid, signal.SIGINT)
                await asyncio.sleep(0.5)
                alive = svc.stats()["pool"]["pids"]
                again = await svc.submit(
                    JobSpec(kind="s3ttmc", tensor=x, factor=rng.random((12, 3)))
                )
                await svc.result(again)
                return pids, alive, svc.stats()

        pids, alive, stats = run(main())
        assert alive == pids and None not in pids
        assert stats["pool"]["pids"] == pids
        assert stats["counters"]["failed"] == 0
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("execution", ["serial", "process"])
    def test_close_leaves_no_job_process(self, execution, rng):
        x = make_random_tensor(3, 12, 80, rng)
        u = rng.random((12, 3))

        async def main():
            svc = DecompositionService(execution=execution, n_workers=2)
            async with svc:
                job = await svc.submit(JobSpec(kind="s3ttmc", tensor=x, factor=u))
                await svc.result(job)
                pids = svc.stats()["pool"]["pids"]
                assert len(self.slot_children()) == 2
            return pids, svc.stats()

        pids, stats = run(main())
        assert self.slot_children() == []
        assert stats["pool"]["pids"] == [None, None]
        assert stats["hygiene"] == {"budgets_undrained": 0, "live_segments": 0}
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestRemovedOptions:
    def test_unknown_execution_rejected_before_any_job_process(self):
        with pytest.raises(ValueError, match=r"'bogus'.*'serial', 'process'"):
            DecompositionService(execution="bogus")
        assert TestJobProcesses.slot_children() == []

    def test_spool_dir_fails_loudly(self, tmp_path):
        with pytest.raises(TypeError, match="spool_dir"):
            DecompositionService(spool_dir=str(tmp_path))

    def test_spool_dir_flag_fails_loudly(self, capsys):
        from repro.serve.__main__ import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--spool-dir", "spool"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --spool-dir" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Acceptance end-to-end: concurrent multi-tenant load + shutdown hygiene
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def test_concurrent_jobs_cache_quota_and_hygiene(self, rng):
        """The ISSUE acceptance scenario: >= 8 concurrent jobs including
        duplicates and one over-quota tenant. Duplicates are served from
        the cache, the over-quota job is refused typed before any
        allocation, every completed job is bitwise-equal to a direct
        driver call, and shutdown leaves budgets drained and zero leaked
        shm segments."""
        before = set(_shm._LIVE_SEGMENTS)
        x1 = make_random_tensor(3, 16, 150, rng)
        x2 = make_random_tensor(3, 14, 120, rng)
        x3 = make_random_tensor(4, 10, 90, rng)
        u1 = rng.random((16, 3))
        u2 = rng.random((14, 2))

        def copy_of(t):
            return repro.SparseSymmetricTensor(
                t.order, t.dim, t.indices.copy(), t.values.copy()
            )

        specs = [
            hooi_spec(x1, 3, seed=7, tenant="acme"),
            hooi_spec(x3, 3, seed=2, tenant="acme"),
            JobSpec(kind="hoqri", tensor=x2, rank=2, seed=5, max_iters=5,
                    tenant="beta"),
            JobSpec(kind="hoqri", tensor=x1, rank=2, seed=9, max_iters=5,
                    tenant="beta"),
            JobSpec(kind="s3ttmc", tensor=x1, factor=u1, tenant="acme"),
            JobSpec(kind="s3ttmc", tensor=x2, factor=u2, tenant="beta"),
            # Content-identical duplicates of jobs 0 and 4, fresh objects.
            hooi_spec(copy_of(x1), 3, seed=7, tenant="beta"),
            JobSpec(kind="s3ttmc", tensor=copy_of(x1), factor=u1.copy(),
                    tenant="acme"),
        ]

        async def main():
            async with DecompositionService(
                pool_size=3, quotas={"smallco": TenantQuota(memory_bytes=2048)}
            ) as svc:
                # All eight enter the service before any result is awaited,
                # so the pool runs them concurrently and the duplicates
                # coalesce onto their in-flight primaries.
                jobs = [await svc.submit(spec) for spec in specs]
                with pytest.raises(QuotaExceededError) as excinfo:
                    await svc.submit(
                        hooi_spec(x3, 3, seed=1, tenant="smallco")
                    )
                results = [await svc.result(job) for job in jobs]
                statuses = [svc.status(job) for job in jobs]
                stats = svc.stats()
                counters = await svc.close()
                return excinfo.value, results, statuses, stats, counters

        rejection, results, statuses, stats, counters = run(main())

        # Typed refusal, before intake: the smallco job has no record.
        assert rejection.tenant == "smallco"
        assert rejection.predicted_bytes > rejection.limit_bytes == 2048
        assert counters["rejected"] == 1
        assert counters["submitted"] == 8

        # Duplicates rode the cache (coalesced mid-flight or served after).
        assert statuses[6].cache_hit and statuses[7].cache_hit
        assert counters["cache_hits"] >= 2
        assert all(s.state == "done" for s in statuses)

        # Bitwise equality against direct driver calls.
        direct = [
            hooi(x1, 3, **specs[0].driver_kwargs()),
            hooi(x3, 3, **specs[1].driver_kwargs()),
            hoqri(x2, 2, seed=5, max_iters=5),
            hoqri(x1, 2, seed=9, max_iters=5),
            s3ttmc(x1, u1),
            s3ttmc(x2, u2),
        ]
        for got, want in zip(results[:4], direct[:4]):
            assert np.array_equal(got.factor, want.factor)
        for got, want in zip(results[4:6], direct[4:6]):
            assert np.array_equal(np.asarray(got.data), np.asarray(want.data))
        assert np.array_equal(results[6].factor, direct[0].factor)
        assert np.array_equal(
            np.asarray(results[7].data), np.asarray(direct[4].data)
        )

        # Shutdown hygiene: budgets drained, no leaked shm segments.
        assert counters["budgets_undrained"] == 0
        assert set(_shm._LIVE_SEGMENTS) == before

    def test_process_pool_jobs_leak_no_segments(self, rng):
        """One service over a persistent process backend: results match
        the serial kernel and closing the service sweeps every shm
        segment its run tokens created."""
        before = set(_shm._LIVE_SEGMENTS)
        x = make_random_tensor(3, 12, 80, rng)
        u = rng.random((12, 3))

        async def main():
            async with DecompositionService(
                execution="process", n_workers=2, pool_size=1
            ) as svc:
                a = await svc.submit(JobSpec(kind="s3ttmc", tensor=x, factor=u))
                ra = await svc.result(a)
                # Second job reuses the slot's warm backend.
                b = await svc.submit(
                    JobSpec(kind="s3ttmc", tensor=x, factor=u * 2.0)
                )
                rb = await svc.result(b)
                return ra, rb

        ra, rb = run(main())
        assert np.allclose(np.asarray(ra.data), np.asarray(s3ttmc(x, u).data))
        assert np.allclose(
            np.asarray(rb.data), np.asarray(s3ttmc(x, u * 2.0).data)
        )
        assert set(_shm._LIVE_SEGMENTS) == before


# ---------------------------------------------------------------------------
# Daemon round-trip
# ---------------------------------------------------------------------------


class TestDaemon:
    def test_daemon_round_trip(self, rng):
        x = make_random_tensor(3, 12, 80, rng)
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_dir), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--pool", "2", "--quota", "smallco=2048"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            client = connect_from_banner(banner, timeout=120.0)
            assert client is not None, f"no banner in {banner!r}"
            assert client.ping()

            spec = hooi_spec(x, 3, seed=7)
            submitted = client.submit(spec)
            reply = client.result(submitted["job_id"])
            want = hooi(x, 3, **spec.driver_kwargs())
            assert np.array_equal(
                np.asarray(reply["result"]["factor"]), want.factor
            )

            from repro.serve.client import RemoteServeError

            dup = client.submit(hooi_spec(x, 3, seed=7))
            assert dup["state"] == "done" and dup["cache_hit"]

            with pytest.raises(RemoteServeError) as excinfo:
                client.submit(hooi_spec(x, 3, seed=7, svd_method="power"))
            assert excinfo.value.error == "InvalidJobError"

            # A duplicate row refuses at decode, typed, before admission.
            payload = spec_to_wire(hooi_spec(x, 3, seed=7))
            payload["tensor"]["indices"].append(payload["tensor"]["indices"][0])
            payload["tensor"]["values"].append(1.0)
            with pytest.raises(RemoteServeError) as excinfo:
                client.request({"op": "submit", "spec": payload})
            assert excinfo.value.error == "InvalidJobError"
            assert "duplicate" in str(excinfo.value)

            with pytest.raises(RemoteServeError) as excinfo:
                client.submit(hooi_spec(x, 3, seed=1, tenant="smallco"))
            assert excinfo.value.error == "QuotaExceededError"

            stats = client.stats()
            assert stats["counters"]["rejected"] == 1
            assert stats["counters"]["cache_hits"] == 1

            final = client.shutdown()
            assert final["hygiene"]["budgets_undrained"] == 0
            assert proc.wait(timeout=60) == 0
            tail = proc.stdout.read()
            assert "serve: shutdown clean (budgets_undrained=0" in tail
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
