"""Correctness tests for the SymProp S³TTMc kernel against dense references."""

import numpy as np
import pytest

from repro.baselines.dense_ref import dense_s3ttmc_matrix
from repro.core import KernelStats, build_plan, lattice_ttmc, s3ttmc
from repro.formats import CSSTensor, PartiallySymmetricTensor, SparseSymmetricTensor
from tests.conftest import make_random_tensor


class TestAgainstDense:
    @pytest.mark.parametrize(
        "order,dim,rank,n",
        [(2, 5, 3, 10), (3, 6, 4, 25), (4, 5, 3, 20), (5, 6, 2, 30), (6, 4, 2, 12)],
    )
    def test_matches_dense(self, order, dim, rank, n, rng):
        x = make_random_tensor(order, dim, n, rng)
        u = rng.random((dim, rank))
        ref = dense_s3ttmc_matrix(x, u)
        y = s3ttmc(x, u)
        assert np.allclose(y.to_full_unfolding(), ref, atol=1e-10)

    @pytest.mark.parametrize("memoize", ["global", "nonzero"])
    def test_memoize_scopes_agree(self, memoize, rng):
        x = make_random_tensor(4, 6, 25, rng)
        u = rng.random((6, 3))
        ref = dense_s3ttmc_matrix(x, u)
        y = s3ttmc(x, u, memoize=memoize)
        assert np.allclose(y.to_full_unfolding(), ref, atol=1e-10)

    def test_css_input(self, small_tensor, rng):
        u = rng.random((small_tensor.dim, 3))
        css = CSSTensor(small_tensor)
        a = s3ttmc(css, u).unfolding
        b = s3ttmc(small_tensor, u).unfolding
        assert np.allclose(a, b)

    def test_batching_invariance(self, rng):
        x = make_random_tensor(4, 8, 40, rng)
        u = rng.random((8, 3))
        full = s3ttmc(x, u).unfolding
        for batch in (1, 7, 16, 1000):
            assert np.allclose(s3ttmc(x, u, nz_batch_size=batch).unfolding, full)

    def test_block_bytes_invariance(self, rng):
        # block_bytes is honoured by the generic engine only, so the
        # check runs there: tiny blocks change no bit and stay exact.
        x = make_random_tensor(5, 6, 30, rng)
        u = rng.random((6, 3))
        args = (x.indices, x.values, x.dim, u)
        full = lattice_ttmc(*args, kernel="generic")
        tiny = lattice_ttmc(*args, kernel="generic", block_bytes=4096)
        assert np.array_equal(tiny, full)
        y = PartiallySymmetricTensor(x.dim, x.order - 1, u.shape[1], tiny)
        assert np.allclose(y.to_full_unfolding(), dense_s3ttmc_matrix(x, u), atol=1e-10)

    def test_plan_reuse(self, rng):
        x = make_random_tensor(4, 6, 20, rng)
        u1 = rng.random((6, 3))
        u2 = rng.random((6, 3))
        plan = build_plan(x.indices)
        y1 = s3ttmc(x, u1, plan=plan).to_full_unfolding()
        y2 = s3ttmc(x, u2, plan=plan).to_full_unfolding()
        assert np.allclose(y1, dense_s3ttmc_matrix(x, u1), atol=1e-10)
        assert np.allclose(y2, dense_s3ttmc_matrix(x, u2), atol=1e-10)

    def test_plan_cached_on_tensor(self, rng):
        from repro.core.plan import get_plan

        x = make_random_tensor(3, 5, 10, rng)
        p1 = get_plan(x)
        p2 = get_plan(x)
        assert p1 is p2


class TestEdgeCases:
    def test_empty_tensor(self, rng):
        x = SparseSymmetricTensor(3, 5, np.zeros((0, 3), dtype=int), np.zeros(0))
        y = s3ttmc(x, rng.random((5, 2)))
        assert np.allclose(y.unfolding, 0.0)

    def test_single_nonzero(self, rng):
        x = SparseSymmetricTensor(3, 5, np.array([[0, 2, 4]]), np.array([2.0]))
        u = rng.random((5, 2))
        ref = dense_s3ttmc_matrix(x, u)
        assert np.allclose(s3ttmc(x, u).to_full_unfolding(), ref, atol=1e-12)

    def test_rank_one(self, rng):
        x = make_random_tensor(4, 5, 15, rng)
        u = rng.random((5, 1))
        ref = dense_s3ttmc_matrix(x, u)
        assert np.allclose(s3ttmc(x, u).to_full_unfolding(), ref, atol=1e-10)

    def test_diagonal_only_tensor(self, rng):
        """All-repeated indices (hypergraph self-loops)."""
        idx = np.array([[i, i, i] for i in range(5)])
        x = SparseSymmetricTensor(3, 5, idx, rng.random(5))
        u = rng.random((5, 3))
        ref = dense_s3ttmc_matrix(x, u)
        assert np.allclose(s3ttmc(x, u).to_full_unfolding(), ref, atol=1e-10)

    def test_factor_shape_validation(self, small_tensor, rng):
        with pytest.raises(ValueError):
            s3ttmc(small_tensor, rng.random((small_tensor.dim + 1, 3)))

    def test_order_one_rejected(self, rng):
        x = SparseSymmetricTensor(1, 5, np.array([[2]]), np.array([1.0]))
        with pytest.raises(ValueError):
            s3ttmc(x, rng.random((5, 2)))

    def test_wrong_input_type(self, rng):
        with pytest.raises(TypeError):
            s3ttmc(np.zeros((3, 3)), rng.random((3, 2)))


class TestStats:
    def test_stats_filled(self, rng):
        x = make_random_tensor(4, 6, 20, rng)
        u = rng.random((6, 3))
        stats = KernelStats()
        s3ttmc(x, u, stats=stats)
        assert stats.kernel_flops > 0
        assert set(stats.level_flops) == {2, 3}
        assert stats.scatter_flops > 0
        assert stats.output_bytes == 6 * 10 * 8  # I x S_{3,3}


class TestRemovedOptions:
    def test_removed_kernel_knobs_fail_loudly(self, small_tensor, rng):
        # Chunk and block sizes are set only on lattice_ttmc; the entry
        # points above it reject them.
        import importlib

        import repro.core
        from repro.core import s3ttmc_tc
        from repro.parallel import parallel_s3ttmc

        u = rng.random((small_tensor.dim, 2))
        calls = [
            lambda: s3ttmc(small_tensor, u, chunk_edges=64),
            lambda: s3ttmc(small_tensor, u, block_bytes=4096),
            lambda: s3ttmc_tc(small_tensor, u, chunk_edges=64),
            lambda: parallel_s3ttmc(small_tensor, u, 2, chunk_edges=64),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.autotune")
        assert not hasattr(repro.core, "autotune")
        assert not hasattr(repro.core, "tuned_s3ttmc")
