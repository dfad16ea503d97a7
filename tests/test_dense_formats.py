"""Tests for dense helpers and compact dense symmetric storage."""

import numpy as np
import pytest

from repro.formats.dense import refold, ttm, ttmc_all_but_one, unfold
from repro.formats.dense_sym import DenseSymmetricTensor
from repro.symmetry.combinatorics import sym_storage_size


class TestUnfold:
    def test_roundtrip_all_modes(self, rng):
        t = rng.random((3, 4, 5, 2))
        for mode in range(4):
            m = unfold(t, mode)
            assert m.shape == (t.shape[mode], t.size // t.shape[mode])
            assert np.allclose(refold(m, mode, t.shape), t)

    def test_mode0_matches_reshape(self, rng):
        t = rng.random((3, 4, 5))
        assert np.allclose(unfold(t, 0), t.reshape(3, 20))

    def test_column_layout_row_major(self, rng):
        # unfold(t,1)[j, lin(i,k)] == t[i,j,k] with k fastest
        t = rng.random((2, 3, 4))
        m = unfold(t, 1)
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    assert m[j, i * 4 + k] == t[i, j, k]

    def test_invalid_mode(self, rng):
        with pytest.raises(ValueError):
            unfold(rng.random((2, 2)), 5)


class TestTTM:
    def test_matches_einsum(self, rng):
        t = rng.random((4, 4, 4))
        u = rng.random((4, 2))
        assert np.allclose(ttm(t, u, 0), np.einsum("ijk,ir->rjk", t, u))
        assert np.allclose(ttm(t, u, 1), np.einsum("ijk,jr->irk", t, u))
        assert np.allclose(ttm(t, u, 2), np.einsum("ijk,kr->ijr", t, u))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            ttm(rng.random((3, 3)), rng.random((4, 2)), 0)

    def test_chain_all_but_one(self, rng):
        t = rng.random((3, 3, 3, 3))
        u = rng.random((3, 2))
        y = ttmc_all_but_one(t, u, 0)
        assert y.shape == (3, 2, 2, 2)
        ref = np.einsum("ijkl,jb,kc,ld->ibcd", t, u, u, u)
        assert np.allclose(y, ref)


class TestDenseSymmetric:
    def make_symmetric(self, order, dim, rng):
        t = rng.random((dim,) * order)
        for perm in __import__("itertools").permutations(range(order)):
            t = (t + np.transpose(t, perm)) / 2 if perm != tuple(range(order)) else t
        # full symmetrization
        out = np.zeros_like(t)
        import itertools

        perms = list(itertools.permutations(range(order)))
        for perm in perms:
            out += np.transpose(t, perm)
        return out / len(perms)

    def test_roundtrip(self, rng):
        full = self.make_symmetric(3, 4, rng)
        ds = DenseSymmetricTensor.from_full(full)
        assert ds.size == sym_storage_size(3, 4)
        assert np.allclose(ds.to_full(), full)

    def test_norm_matches_full(self, rng):
        full = self.make_symmetric(3, 3, rng)
        ds = DenseSymmetricTensor.from_full(full)
        assert ds.norm_squared() == pytest.approx((full**2).sum())
        assert ds.norm() == pytest.approx(np.linalg.norm(full))

    def test_getsetitem_any_order(self, rng):
        ds = DenseSymmetricTensor(3, 4)
        ds[(3, 0, 2)] = 7.5
        assert ds[(0, 2, 3)] == 7.5
        assert ds[(2, 3, 0)] == 7.5

    def test_rejects_nonhypercubical(self, rng):
        with pytest.raises(ValueError):
            DenseSymmetricTensor.from_full(rng.random((2, 3)))

    def test_rejects_asymmetric(self, rng):
        with pytest.raises(ValueError):
            DenseSymmetricTensor.from_full(rng.random((3, 3, 3)))

    def test_random_constructor(self, rng):
        ds = DenseSymmetricTensor.random(4, 3, rng)
        assert ds.data.shape == (sym_storage_size(4, 3),)

    def test_paper_example(self):
        """The order-3 2x2x2 example of Section II-A."""
        full = np.array([[[1, 2], [2, 3]], [[2, 3], [3, 4]]], dtype=float)
        ds = DenseSymmetricTensor.from_full(full)
        assert ds.data.tolist() == [1, 2, 3, 4]

    def test_wrong_index_count(self):
        ds = DenseSymmetricTensor(3, 4)
        with pytest.raises(IndexError):
            _ = ds[(1, 2)]
