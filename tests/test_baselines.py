"""Cross-kernel agreement: SymProp ≡ CSS ≡ SPLATT ≡ n-ary ≡ dense."""

import numpy as np
import pytest

from repro.baselines import (
    css_s3ttmc,
    css_s3ttmc_tc,
    dense_s3ttmc_matrix,
    dense_s3ttmc_tc,
    splatt_ttmc,
)
from repro.baselines.hoqri_nary import nary_hoqri_step
from repro.baselines.splatt import csf_ttmc
from repro.core import s3ttmc, s3ttmc_tc
from repro.formats import CSFTensor, SparseSymmetricTensor
from tests.conftest import make_random_tensor


@pytest.mark.parametrize("order,dim,rank,n", [(3, 6, 4, 25), (4, 5, 3, 20), (5, 6, 2, 25)])
class TestKernelFamilyAgreement:
    def test_css_matches_dense(self, order, dim, rank, n, rng):
        x = make_random_tensor(order, dim, n, rng)
        u = rng.random((dim, rank))
        assert np.allclose(css_s3ttmc(x, u), dense_s3ttmc_matrix(x, u), atol=1e-10)

    def test_splatt_matches_dense(self, order, dim, rank, n, rng):
        x = make_random_tensor(order, dim, n, rng)
        u = rng.random((dim, rank))
        assert np.allclose(splatt_ttmc(x, u), dense_s3ttmc_matrix(x, u), atol=1e-10)

    def test_symprop_expanded_equals_css(self, order, dim, rank, n, rng):
        x = make_random_tensor(order, dim, n, rng)
        u = rng.random((dim, rank))
        sp = s3ttmc(x, u).to_full_unfolding()
        css = css_s3ttmc(x, u)
        assert np.allclose(sp, css, atol=1e-10)


class TestSplattDetails:
    def test_nonzero_batching_of_csf_levels(self, rng):
        """CSF TTMc over a nontrivial trie (shared fibers)."""
        idx = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
        x = SparseSymmetricTensor(3, 5, idx, rng.random(4))
        u = rng.random((5, 3))
        assert np.allclose(splatt_ttmc(x, u), dense_s3ttmc_matrix(x, u), atol=1e-12)

    def test_csf_other_mode_order(self, rng):
        """TTMc excluding a non-zero root mode agrees with dense (symmetry)."""
        x = make_random_tensor(3, 5, 15, rng)
        u = rng.random((5, 2))
        csf = CSFTensor.from_symmetric(x, mode_order=(1, 0, 2))
        # For a symmetric tensor the product over all modes but one is
        # mode-independent (Eq. 2).
        assert np.allclose(csf_ttmc(csf, u), dense_s3ttmc_matrix(x, u), atol=1e-12)

    def test_factor_validation(self, small_tensor, rng):
        csf = CSFTensor.from_symmetric(small_tensor)
        with pytest.raises(ValueError):
            csf_ttmc(csf, rng.random((small_tensor.dim + 2, 3)))


class TestCssTc:
    def test_css_tc_matches_dense(self, rng):
        x = make_random_tensor(4, 6, 20, rng)
        u = rng.random((6, 3))
        assert np.allclose(css_s3ttmc_tc(x, u), dense_s3ttmc_tc(x, u), atol=1e-8)


class TestNaryHoqriStep:
    def test_step_matches_symprop(self, rng):
        x = make_random_tensor(4, 7, 25, rng)
        u = rng.random((7, 3))
        a_nary, c1 = nary_hoqri_step(x, u, chunk=11)
        res = s3ttmc_tc(x, u)
        assert np.allclose(a_nary, res.a, atol=1e-8)
        assert np.allclose(c1, res.core.to_full_unfolding(), atol=1e-9)
