"""Tests for HOOI (Alg. 3) and HOQRI (Alg. 4) decompositions."""

import numpy as np
import pytest

from repro.data import planted_lowrank
from repro.decomp import hooi, hoqri, hosvd_init, random_init
from repro.decomp.objective import fit, relative_error, tucker_objective
from repro.runtime import ExecContext
from tests.conftest import make_random_tensor


@pytest.fixture
def tensor4(rng):
    return make_random_tensor(4, 12, 60, rng)


class TestHooi:
    def test_runs_and_orthonormal(self, tensor4):
        res = hooi(tensor4, 3, max_iters=10, seed=0)
        assert res.factor.shape == (12, 3)
        assert res.orthonormality_defect() < 1e-8
        assert res.iterations <= 10
        assert res.algorithm.startswith("hooi")

    def test_objective_monotone_decreasing(self, tensor4):
        res = hooi(tensor4, 3, max_iters=20, seed=1)
        obj = res.trace.objective
        for a, b in zip(obj, obj[1:]):
            assert b <= a + 1e-9 * max(abs(a), 1.0)

    def test_objective_bounds(self, tensor4):
        res = hooi(tensor4, 3, max_iters=5, seed=0)
        assert 0.0 <= res.relative_error <= 1.0 + 1e-12
        assert res.trace.objective[-1] <= res.norm_x_squared + 1e-9

    def test_compact_svd_matches_expand(self, tensor4, rng):
        u0 = random_init(12, 3, rng)
        a = hooi(tensor4, 3, max_iters=5, init=u0)
        b = hooi(tensor4, 3, max_iters=5, init=u0, svd_method="compact")
        assert np.allclose(a.trace.objective, b.trace.objective, atol=1e-6)
        # Both paths fix the singular vectors' signs the same way.
        assert np.allclose(a.factor, b.factor, atol=1e-8)

    @pytest.mark.parametrize("svd_method", ["expand", "compact"])
    def test_singular_vector_signs_fixed(self, tensor4, svd_method):
        res = hooi(tensor4, 3, max_iters=3, seed=0, svd_method=svd_method)
        peaks = res.factor[np.argmax(np.abs(res.factor), axis=0), np.arange(3)]
        assert (peaks > 0).all()

    def test_removed_gram_svd_fails_loudly(self, tensor4):
        with pytest.raises(ValueError, match="unknown svd_method 'gram'"):
            hooi(tensor4, 2, svd_method="gram")

    def test_css_kernel_matches_symprop(self, tensor4, rng):
        u0 = random_init(12, 3, rng)
        a = hooi(tensor4, 3, max_iters=4, init=u0)
        b = hooi(tensor4, 3, max_iters=4, init=u0, kernel="css")
        assert np.allclose(a.trace.objective, b.trace.objective, atol=1e-6)

    def test_full_rank_near_exact_on_matrix(self, rng):
        """Order-2, full rank: Tucker reproduces the matrix exactly."""
        x = make_random_tensor(2, 6, 12, rng)
        res = hooi(x, 6, max_iters=8, seed=0)
        assert res.relative_error < 1e-6

    def test_rank_validation(self, tensor4):
        with pytest.raises(ValueError):
            hooi(tensor4, 0)
        with pytest.raises(ValueError):
            hooi(tensor4, 13)

    def test_invalid_options(self, tensor4):
        with pytest.raises(ValueError):
            hooi(tensor4, 2, kernel="splatt")
        with pytest.raises(ValueError):
            hooi(tensor4, 2, svd_method="power")

    def test_timer_phases(self, tensor4):
        res = hooi(tensor4, 2, max_iters=3, seed=0)
        assert {"init", "s3ttmc", "svd", "core", "objective"} <= set(res.timer.totals)


class TestHoqri:
    def test_runs_and_orthonormal(self, tensor4):
        res = hoqri(tensor4, 3, max_iters=30, seed=0)
        assert res.orthonormality_defect() < 1e-8
        assert res.algorithm == "hoqri[symprop]"

    def test_converges_to_hooi_error_level(self, rng):
        """Fig. 9: both algorithms reach the same error level.

        Uses a fully sampled planted low-rank tensor (a genuinely low-rank
        target); on unstructured random tensors the two methods may settle
        in different local optima.
        """
        x = planted_lowrank(3, 14, 3, None, noise=0.05, seed=11)
        u0 = random_init(14, 3, np.random.default_rng(11))
        a = hooi(x, 3, max_iters=60, init=u0, tol=1e-12)
        b = hoqri(x, 3, max_iters=300, init=u0, tol=1e-12)
        assert abs(a.relative_error - b.relative_error) < 0.02

    def test_nary_kernel_matches_symprop(self, tensor4, rng):
        u0 = random_init(12, 3, rng)
        a = hoqri(tensor4, 3, max_iters=5, init=u0)
        b = hoqri(tensor4, 3, max_iters=5, init=u0, kernel="nary")
        assert np.allclose(a.trace.objective, b.trace.objective, atol=1e-6)

    def test_final_core_consistent_with_factor(self, tensor4):
        """The returned (factor, core) pair belongs to the same iterate."""
        res = hoqri(tensor4, 3, max_iters=10, seed=3)
        from repro.core import s3ttmc_tc

        recomputed = s3ttmc_tc(tensor4, res.factor).core
        assert np.allclose(recomputed.data, res.core.data, atol=1e-9)

    def test_recovers_planted_structure(self):
        """Fully sampled noise-free planted model: near-exact recovery."""
        x = planted_lowrank(3, 14, 3, None, noise=0.0, seed=5)
        res = hoqri(x, 3, max_iters=400, init="hosvd", tol=1e-14)
        assert res.relative_error < 1e-4

    def test_invalid_kernel(self, tensor4):
        with pytest.raises(ValueError):
            hoqri(tensor4, 2, kernel="css")

    def test_timer_phases(self, tensor4):
        res = hoqri(tensor4, 2, max_iters=3, seed=0)
        assert {"init", "s3ttmc", "times_core", "qr", "objective"} <= set(
            res.timer.totals
        )


class TestRunValidation:
    @pytest.mark.parametrize("algorithm", [hooi, hoqri])
    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_max_iters_rejected_before_any_run_work(
        self, algorithm, max_iters, tensor4
    ):
        # A typed error before the context acquires a backend, not an
        # AssertionError after initialization.
        ctx = ExecContext(execution="process", n_workers=2)
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            algorithm(tensor4, 2, max_iters=max_iters, seed=0, ctx=ctx)
        assert ctx.backend is None
        ctx.close()

    @pytest.mark.parametrize("algorithm", [hooi, hoqri])
    @pytest.mark.parametrize("removed", ["execution", "n_workers"])
    def test_legacy_execution_keywords_removed(self, algorithm, removed, tensor4):
        with pytest.raises(TypeError, match=removed):
            algorithm(tensor4, 2, max_iters=1, **{removed: None})


class TestInits:
    def test_random_init_orthonormal(self, rng):
        u = random_init(10, 4, rng)
        assert np.allclose(u.T @ u, np.eye(4), atol=1e-12)

    def test_random_init_deterministic(self):
        a = random_init(8, 3, np.random.default_rng(7))
        b = random_init(8, 3, np.random.default_rng(7))
        assert np.allclose(a, b)

    def test_random_init_rank_validation(self, rng):
        with pytest.raises(ValueError):
            random_init(3, 4, rng)

    def test_hosvd_init_matches_svd_of_unfolding(self, small_tensor):
        u = hosvd_init(small_tensor, 3)
        assert np.allclose(u.T @ u, np.eye(3), atol=1e-10)
        dense = small_tensor.to_dense().reshape(small_tensor.dim, -1)
        u_ref, _s, _vt = np.linalg.svd(dense, full_matrices=False)
        # Compare subspaces (signs/rotations within equal singular values may
        # differ): projector distance.
        p1 = u @ u.T
        p2 = u_ref[:, :3] @ u_ref[:, :3].T
        assert np.allclose(p1, p2, atol=1e-8)

    def test_hosvd_better_start_than_random(self, rng):
        x = planted_lowrank(3, 25, 3, 300, noise=0.01, seed=9)
        res_h = hooi(x, 3, max_iters=1, init="hosvd")
        res_r = hooi(x, 3, max_iters=1, init="random", seed=123)
        assert res_h.trace.objective[0] <= res_r.trace.objective[0] + 1e-9

    def test_explicit_init_array(self, small_tensor, rng):
        u0 = random_init(small_tensor.dim, 2, rng)
        res = hooi(small_tensor, 2, max_iters=2, init=u0)
        assert res.iterations >= 1

    def test_init_shape_validation(self, small_tensor, rng):
        with pytest.raises(ValueError):
            hooi(small_tensor, 2, init=rng.random((3, 2)))

    def test_unknown_init(self, small_tensor):
        with pytest.raises(ValueError):
            hooi(small_tensor, 2, init="zeros")


class TestObjectiveHelpers:
    def test_fit_plus_error_is_one(self, small_tensor, rng):
        res = hooi(small_tensor, 2, max_iters=3, seed=0)
        assert fit(res.norm_x_squared, res.core) + relative_error(
            res.norm_x_squared, res.core
        ) == pytest.approx(1.0)

    def test_objective_formula(self, small_tensor, rng):
        """f == ||X||² − ||C||² == ||X − X̂||² for a consistent (U, C) pair.

        HOQRI returns factor and core from the same iterate (HOOI's
        Algorithm-3 core mixes the pre- and post-SVD factor by design), so
        the residual identity is checked on HOQRI's output.
        """
        from repro.formats.dense import ttm

        res = hoqri(small_tensor, 3, max_iters=4, seed=1)
        f = tucker_objective(res.norm_x_squared, res.core)
        c_full = res.core.to_full_tensor()
        u = res.factor
        recon = c_full
        for mode in range(small_tensor.order):
            recon = ttm(recon, u.T, mode)
        resid = small_tensor.to_dense() - recon
        assert f == pytest.approx((resid**2).sum(), rel=1e-6)
