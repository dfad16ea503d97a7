"""Decomposition option-matrix tests: every flag combination behaves."""

import numpy as np
import pytest

from repro.decomp import hooi, hoqri
from repro.formats import CSSTensor
from repro.runtime.timer import PhaseTimer
from tests.conftest import make_random_tensor


@pytest.fixture(scope="module")
def tensor():
    rng = np.random.default_rng(99)
    return make_random_tensor(4, 14, 70, rng)


@pytest.mark.parametrize("kernel", ["symprop", "css"])
@pytest.mark.parametrize("svd_method", ["expand", "compact"])
@pytest.mark.parametrize("memoize", ["global", "nonzero"])
class TestHooiOptionMatrix:
    def test_trajectory_invariant(
        self, tensor, kernel, svd_method, memoize, tmp_path
    ):
        """All option combinations compute the same mathematical iteration."""
        from repro.decomp import random_init

        u0 = random_init(tensor.dim, 3, np.random.default_rng(5))
        reference = hooi(tensor, 3, max_iters=3, init=u0.copy(), tol=0.0)
        variant = hooi(
            tensor,
            3,
            max_iters=3,
            init=u0.copy(),
            tol=0.0,
            kernel=kernel,
            svd_method=svd_method,
            memoize=memoize,
        )
        assert np.allclose(
            reference.trace.objective, variant.trace.objective, rtol=1e-8
        )
        if kernel != "css" or svd_method != "compact":
            return
        # CSS always runs the SVD of the full Y_(1): compact is expand,
        # under the same label and the same checkpoint configuration.
        run = dict(init=u0.copy(), tol=0.0, kernel="css", memoize=memoize)
        expand = hooi(tensor, 3, max_iters=3, svd_method="expand", **run)
        assert np.array_equal(variant.factor, expand.factor)
        assert variant.trace.objective == expand.trace.objective
        assert variant.algorithm == expand.algorithm == "hooi[css,expand]"
        for first, then in (("compact", "expand"), ("expand", "compact")):
            ckpt = tmp_path / first
            hooi(tensor, 3, max_iters=2, svd_method=first, checkpoint_dir=ckpt, **run)
            resumed = hooi(
                tensor, 3, max_iters=3, svd_method=then,
                checkpoint_dir=ckpt, resume=True, **run,
            )
            assert np.array_equal(resumed.factor, expand.factor)
            assert resumed.trace.objective == expand.trace.objective


class TestSharedOptionBehaviours:
    @pytest.mark.parametrize("algo", [hooi, hoqri])
    def test_external_timer_filled(self, tensor, algo):
        timer = PhaseTimer()
        res = algo(tensor, 2, max_iters=2, tol=0.0, seed=0, timer=timer)
        assert res.timer is timer
        assert timer.total > 0

    @pytest.mark.parametrize("algo", [hooi, hoqri])
    def test_huge_tol_converges_after_two_iterations(self, tensor, algo):
        res = algo(tensor, 2, max_iters=50, tol=1e6, seed=0)
        assert res.converged
        assert res.iterations <= 2

    @pytest.mark.parametrize("algo", [hooi, hoqri])
    def test_css_input_equivalent(self, tensor, algo):
        from repro.decomp import random_init

        u0 = random_init(tensor.dim, 2, np.random.default_rng(3))
        a = algo(tensor, 2, max_iters=3, tol=0.0, init=u0.copy())
        b = algo(CSSTensor.from_ucoo(tensor), 2, max_iters=3, tol=0.0, init=u0.copy())
        assert np.allclose(a.trace.objective, b.trace.objective)

    @pytest.mark.parametrize("algo", [hooi, hoqri])
    def test_batch_size_invariant(self, tensor, algo):
        from repro.decomp import random_init

        u0 = random_init(tensor.dim, 2, np.random.default_rng(4))
        a = algo(tensor, 2, max_iters=3, tol=0.0, init=u0.copy())
        b = algo(tensor, 2, max_iters=3, tol=0.0, init=u0.copy(), nz_batch_size=9)
        assert np.allclose(a.trace.objective, b.trace.objective, rtol=1e-10)

    @pytest.mark.parametrize("algo", [hooi, hoqri])
    def test_trace_lengths_consistent(self, tensor, algo):
        res = algo(tensor, 2, max_iters=4, tol=0.0, seed=1)
        t = res.trace
        assert len(t.objective) == len(t.relative_error) == len(t.core_norm_squared)
        energy = t.energy_fraction(res.norm_x_squared)
        assert len(energy) == t.iterations
        # energy + err^2 == 1 (consistency of the two recordings)
        for e, r in zip(energy, t.relative_error):
            assert e + r * r == pytest.approx(1.0, abs=1e-6)
