"""Budget exception-path audit: a ``MemoryLimitError`` (or any failure)
mid-kernel must release every byte the call had requested, so retry and
OOM-splitting logic upstream sees the budget exactly as it found it —
and a completed run, plan build included, must drain to zero."""

import numpy as np
import pytest

from repro.baselines.hoqri_nary import nary_hoqri_step
from repro.baselines.splatt import splatt_ttmc
from repro.core import s3ttmc
from repro.data.synthetic import random_sparse_symmetric
from repro.decomp import hoqri
from repro.decomp.hosvd import hosvd_init
from repro.formats.csf import CSFTensor
from repro.formats.partial_sym import PartiallySymmetricTensor
from repro.general.ttmc import csf_ttmc_multi
from repro.obs import TraceCollector
from repro.runtime import ExecContext
from repro.runtime.budget import MemoryBudget, MemoryLimitError
from repro.symmetry.combinatorics import sym_storage_size
from tests.conftest import make_random_tensor


@pytest.fixture
def tensor(rng):
    return make_random_tensor(4, 12, 120, rng)


def _budgeted(limit_bytes=None):
    """A context with a fresh budget; activate it with ``with``."""
    return ExecContext(budget=MemoryBudget(limit_bytes=limit_bytes))


def _peak(fn):
    with _budgeted() as probe:
        fn()
    return probe.budget.peak


def _assert_restored_under_pressure(fn, peak, fractions):
    """Run ``fn`` under tightening limits; every OOM must leave in_use
    exactly where it was before the call."""
    ooms = 0
    for frac in fractions:
        with _budgeted(int(peak * frac)) as ctx:
            budget = ctx.budget
            before = budget.in_use
            try:
                fn()
            except MemoryLimitError:
                ooms += 1
                assert budget.in_use == before, (frac, budget.allocations)
    assert ooms > 0, "no limit tripped; fractions too generous"


class TestEngineRelease:
    def test_lattice_oom_releases_k_levels(self, tensor, rng):
        u = rng.random((12, 4))
        peak = _peak(lambda: s3ttmc(tensor, u))
        _assert_restored_under_pressure(
            lambda: s3ttmc(tensor, u), peak, (0.6, 0.4, 0.25, 0.12)
        )


class TestBaselineRelease:
    def test_splatt_no_per_call_drift(self, tensor, rng):
        u = rng.random((12, 4))
        with _budgeted() as ctx:
            budget = ctx.budget
            splatt_ttmc(tensor, u)
            base = budget.in_use
            splatt_ttmc(tensor, u)
            assert budget.in_use == base, budget.allocations

    def test_splatt_oom_releases_everything(self, tensor, rng):
        u = rng.random((12, 4))
        peak = _peak(lambda: splatt_ttmc(tensor, u))
        _assert_restored_under_pressure(
            lambda: splatt_ttmc(tensor, u), peak, (0.6, 0.3, 0.1, 0.02)
        )

    def test_nary_step_no_core_leak(self, tensor, rng):
        u = rng.random((12, 4))
        with _budgeted() as ctx:
            budget = ctx.budget
            nary_hoqri_step(tensor, u, chunk=16)
            base = budget.in_use
            nary_hoqri_step(tensor, u, chunk=16)
            assert budget.in_use == base, budget.allocations

    def test_nary_step_oom_releases(self, tensor, rng):
        u = rng.random((12, 4))
        peak = _peak(lambda: nary_hoqri_step(tensor, u, chunk=16))
        _assert_restored_under_pressure(
            lambda: nary_hoqri_step(tensor, u, chunk=16), peak, (0.5, 0.1)
        )

    def test_general_csf_oom_releases(self, tensor, rng):
        csf = CSFTensor.from_symmetric(tensor)
        factors = [rng.random((12, 3)) for _ in range(4)]
        peak = _peak(lambda: csf_ttmc_multi(csf, factors))
        _assert_restored_under_pressure(
            lambda: csf_ttmc_multi(csf, factors), peak, (0.5, 0.2, 0.05)
        )


class TestFormatRelease:
    def test_full_unfolding_released_on_expand_failure(self, rng, monkeypatch):
        import repro.formats.partial_sym as ps

        cols = sym_storage_size(3, 4)
        y = PartiallySymmetricTensor(6, 3, 4, rng.random((6, cols)))

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic expand failure")

        monkeypatch.setattr(ps, "expand_compact", boom)
        with _budgeted() as ctx:
            budget = ctx.budget
            before = budget.in_use
            with pytest.raises(RuntimeError):
                y.to_full_unfolding()
            assert budget.in_use == before, budget.allocations

    def test_csf_construction_oom_releases_indices(self, tensor):
        with _budgeted(1024) as ctx:
            budget = ctx.budget
            before = budget.in_use
            with pytest.raises(MemoryLimitError):
                CSFTensor.from_symmetric(tensor)
            assert budget.in_use == before, budget.allocations


class TestDecompRelease:
    def test_hosvd_oom_releases(self, tensor):
        peak = _peak(lambda: hosvd_init(tensor, 3))
        _assert_restored_under_pressure(
            lambda: hosvd_init(tensor, 3), peak, (0.5, 0.1)
        )


class TestPlanBuildAccounting:
    """Plan builds charge their per-level transients to the caller's
    context and give them back once each level is built."""

    @staticmethod
    def _fresh(seed=0):
        # A new tensor object each call: plans are memoized per instance.
        return random_sparse_symmetric(4, 30, 200, seed=seed)

    def test_scoped_hoqri_on_fresh_tensor_drains(self):
        ctx = ExecContext(budget=MemoryBudget(), collector=TraceCollector())
        with ctx:
            hoqri(self._fresh(), 3, max_iters=2, tol=-1.0, seed=0)
        assert ctx.budget.in_use == 0, ctx.budget.allocations
        assert ctx.budget.allocations == {}
        requested, released = {}, {}
        for e in ctx.collector.events:
            if e.name in ("budget.request", "budget.release"):
                tally = requested if e.name == "budget.request" else released
                label = e.attrs["label"]
                tally[label] = tally.get(label, 0) + e.attrs["nbytes"]
        assert any(label.startswith("lattice level") for label in requested)
        assert requested == released

    def test_s3ttmc_peak_same_bare_and_scoped(self, rng):
        u = rng.random((30, 4))
        bare = ExecContext(budget=MemoryBudget())
        s3ttmc(self._fresh(), u, ctx=bare)
        scoped = ExecContext(budget=MemoryBudget())
        with scoped.scope():
            s3ttmc(self._fresh(), u, ctx=scoped)
        assert bare.budget.peak == scoped.budget.peak > 0
        assert bare.budget.in_use == scoped.budget.in_use == 0

    def test_plan_build_is_limit_checked(self):
        x = self._fresh()
        ctx = ExecContext(budget=MemoryBudget(limit_bytes=1024))
        with pytest.raises(MemoryLimitError, match="lattice level"):
            s3ttmc(x, np.ones((30, 2)), ctx=ctx)
        assert ctx.budget.in_use == 0
