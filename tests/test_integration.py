"""Integration tests across modules: end-to-end pipelines under budgets."""

import numpy as np
import pytest

from repro import (
    CSSTensor,
    ExecContext,
    MemoryBudget,
    MemoryLimitError,
    hooi,
    hoqri,
    load_dataset,
    random_sparse_symmetric,
    s3ttmc,
    s3ttmc_tc,
)
from repro.core import KernelStats
from repro.core.plan import get_plan
from repro.data.io import tns_roundtrip
from repro.perfmodel import kernel_footprint, total_sp


class TestEndToEndPipelines:
    def test_dataset_to_decomposition(self):
        """Registry dataset → HOQRI under the scaled budget."""
        x = load_dataset("L6", seed=0)
        with ExecContext(budget=MemoryBudget(gigabytes=1.5)):
            res = hoqri(x, 2, max_iters=3, tol=0.0, seed=0)
        # tol=0 may stop early if the objective exactly stagnates
        assert 1 <= res.iterations <= 3
        assert res.orthonormality_defect() < 1e-8

    def test_io_roundtrip_preserves_kernel_output(self, rng):
        x = random_sparse_symmetric(4, 30, 200, seed=5)
        u = rng.random((30, 3))
        y1 = s3ttmc(x, u).unfolding
        y2 = s3ttmc(tns_roundtrip(x), u).unfolding
        assert np.allclose(y1, y2)

    def test_css_format_pipeline(self, rng):
        x = random_sparse_symmetric(4, 25, 150, seed=6)
        css = CSSTensor(x)
        res = hoqri(css, 3, max_iters=5, seed=0)
        res2 = hoqri(x, 3, max_iters=5, seed=0)
        assert np.allclose(res.trace.objective, res2.trace.objective)

    def test_plan_shared_across_iterations(self):
        """One plan per (pattern, scope): decomposition loops reuse it."""
        x = random_sparse_symmetric(4, 30, 200, seed=7)
        hoqri(x, 3, max_iters=4, seed=0)
        cache = getattr(x, "_s3ttmc_plan_cache")
        assert len(cache) == 1

    def test_footprint_model_predicts_actual_oom(self, rng):
        """Closed-form prediction agrees with real budget behaviour."""
        x = random_sparse_symmetric(6, 40, 100, seed=8)
        u = rng.random((40, 5))
        budget = 8 * 2**20
        from repro.baselines import css_s3ttmc

        fp = kernel_footprint("css", 40, 6, 5, 100, nz_batch=100)
        assert not fp.fits(budget)
        with ExecContext(budget=MemoryBudget(limit_bytes=budget)):
            with pytest.raises(MemoryLimitError):
                css_s3ttmc(x, u)
        fp_sp = kernel_footprint("symprop", 40, 6, 5, 100, nz_batch=100)
        assert fp_sp.fits(budget)
        with ExecContext(budget=MemoryBudget(limit_bytes=budget)):
            s3ttmc(x, u)

    def test_flops_accumulate_over_decomposition(self):
        x = random_sparse_symmetric(4, 20, 100, seed=9)
        res = hoqri(x, 3, max_iters=4, tol=0.0, seed=0, memoize="nonzero")
        # 4 iterations of the kernel; the pattern has some repeated indices
        # so measured <= the all-distinct model bound.
        per_iter_bound = total_sp(4, 3, 100)
        assert res.stats.kernel_flops <= 4 * per_iter_bound
        assert res.stats.kernel_flops > 0

    def test_hooi_oom_then_compact_rescue(self):
        """The faithful SVD OOMs; the compact extension completes (ablation 5)."""
        x = random_sparse_symmetric(6, 200, 300, seed=10)
        rank = 8
        # full Y: 200 * 8^5 * 8 = 52 MB > 16 MB budget; the compact SVD
        # operand is 200 * S_{5,8} * 8 = 1.3 MB, and the compact kernel
        # (batched) stays well under the limit.
        with ExecContext(budget=MemoryBudget(limit_bytes=16 * 2**20)):
            with pytest.raises(MemoryLimitError):
                hooi(
                    x,
                    rank,
                    max_iters=2,
                    seed=0,
                    svd_method="expand",
                    nz_batch_size=64,
                )
        with ExecContext(budget=MemoryBudget(limit_bytes=16 * 2**20)):
            res = hooi(
                x, rank, max_iters=2, tol=0.0, seed=0, svd_method="compact",
                nz_batch_size=64,
            )
        assert res.iterations == 2


class TestNumericalRobustness:
    def test_zero_values_allowed(self, rng):
        from repro.formats import SparseSymmetricTensor

        x = SparseSymmetricTensor(
            3, 10, np.array([[0, 1, 2], [3, 4, 5]]), np.array([0.0, 1.0])
        )
        y = s3ttmc(x, rng.random((10, 2)))
        assert np.isfinite(y.unfolding).all()

    def test_negative_values(self, rng):
        from repro.baselines.dense_ref import dense_s3ttmc_matrix
        from repro.formats import SparseSymmetricTensor

        idx = rng.integers(0, 6, size=(20, 3))
        vals = rng.standard_normal(20)
        x = SparseSymmetricTensor(3, 6, idx, vals, combine="first")
        u = rng.standard_normal((6, 3))
        assert np.allclose(
            s3ttmc(x, u).to_full_unfolding(), dense_s3ttmc_matrix(x, u), atol=1e-10
        )

    def test_large_magnitude_values(self, rng):
        from repro.formats import SparseSymmetricTensor

        x = SparseSymmetricTensor(
            3, 8, np.array([[0, 1, 2]]), np.array([1e12])
        )
        res = s3ttmc_tc(x, rng.random((8, 2)))
        assert np.isfinite(res.a).all()

    def test_stats_deterministic(self):
        x = random_sparse_symmetric(4, 15, 80, seed=11)
        u = np.random.default_rng(0).random((15, 3))
        a, b = KernelStats(), KernelStats()
        s3ttmc(x, u, stats=a)
        s3ttmc(x, u, stats=b)
        assert a.kernel_flops == b.kernel_flops
        assert a.level_nodes == b.level_nodes

    def test_kernel_deterministic_bitwise(self):
        x = random_sparse_symmetric(5, 20, 100, seed=12)
        u = np.random.default_rng(1).random((20, 3))
        y1 = s3ttmc(x, u).unfolding
        y2 = s3ttmc(x, u).unfolding
        assert np.array_equal(y1, y2)

    def test_decomposition_reproducible_by_seed(self):
        x = random_sparse_symmetric(3, 25, 120, seed=13)
        a = hoqri(x, 3, max_iters=6, seed=99)
        b = hoqri(x, 3, max_iters=6, seed=99)
        assert np.array_equal(a.factor, b.factor)
        assert a.trace.objective == b.trace.objective
