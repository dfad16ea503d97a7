"""Tests for partially symmetric {i1},{i2..iN} storage (Y_p / C_p)."""

import numpy as np
import pytest

from repro.formats.partial_sym import PartiallySymmetricTensor
from repro.symmetry.combinatorics import dense_size, sym_storage_size


class TestShape:
    def test_dimensions(self):
        ps = PartiallySymmetricTensor(5, 3, 4)
        assert ps.order == 4
        assert ps.sym_size == sym_storage_size(3, 4)
        assert ps.data.shape == (5, ps.sym_size)
        assert ps.unfolding is ps.data

    def test_data_validation(self, rng):
        with pytest.raises(ValueError):
            PartiallySymmetricTensor(5, 3, 4, rng.random((5, 7)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PartiallySymmetricTensor(-1, 2, 3)
        with pytest.raises(ValueError):
            PartiallySymmetricTensor(3, 0, 3)


class TestExpansion:
    def test_full_unfolding_shape(self, rng):
        ps = PartiallySymmetricTensor(4, 2, 3, rng.random((4, 6)))
        full = ps.to_full_unfolding()
        assert full.shape == (4, dense_size(2, 3))

    def test_full_tensor_symmetric_in_trailing_modes(self, rng):
        ps = PartiallySymmetricTensor(4, 3, 2, rng.random((4, sym_storage_size(3, 2))))
        t = ps.to_full_tensor()
        assert t.shape == (4, 2, 2, 2)
        assert np.allclose(t, np.transpose(t, (0, 2, 1, 3)))
        assert np.allclose(t, np.transpose(t, (0, 1, 3, 2)))
        assert np.allclose(t, np.transpose(t, (0, 3, 2, 1)))

    def test_norm_matches_full(self, rng):
        ps = PartiallySymmetricTensor(3, 3, 3, rng.random((3, sym_storage_size(3, 3))))
        full = ps.to_full_unfolding()
        assert ps.norm_squared() == pytest.approx((full**2).sum())


class TestMode1TTM:
    def test_property2_layout_preserved(self, rng):
        """Mode-1 TTM on compact storage == TTM on full storage, compacted."""
        ps = PartiallySymmetricTensor(6, 2, 3, rng.random((6, 6)))
        u = rng.random((6, 4))
        compact_result = ps.mode1_ttm(u)
        full_result = u.T @ ps.to_full_unfolding()
        assert np.allclose(compact_result.to_full_unfolding(), full_result)

    def test_shape_mismatch(self, rng):
        ps = PartiallySymmetricTensor(6, 2, 3)
        with pytest.raises(ValueError):
            ps.mode1_ttm(rng.random((5, 4)))

    def test_weighted_unfolding(self, rng):
        ps = PartiallySymmetricTensor(2, 2, 2, rng.random((2, 3)))
        w = ps.weighted_unfolding()
        # multiplicities for order-2 dim-2 IOUs (0,0),(0,1),(1,1) = 1,2,1
        assert np.allclose(w, ps.data * np.array([1.0, 2.0, 1.0]))
