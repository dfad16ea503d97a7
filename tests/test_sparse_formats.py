"""Tests for UCOO, COO, CSS, CSF sparse formats and the prefix trie."""

import numpy as np
import pytest

from repro.formats._trie import build_trie
from repro.formats.coo import COOTensor
from repro.formats.csf import CSFTensor
from repro.formats.css import CSSTensor
from repro.formats.ucoo import SparseSymmetricTensor


class TestUCOO:
    def test_canonicalization(self):
        x = SparseSymmetricTensor(
            3, 6, np.array([[5, 3, 1], [0, 0, 0]]), np.array([2.0, 1.0])
        )
        assert x.indices.tolist() == [[0, 0, 0], [1, 3, 5]]

    def test_counts(self):
        x = SparseSymmetricTensor(
            3, 6, np.array([[1, 3, 5], [1, 1, 3], [2, 2, 2]]), np.ones(3)
        )
        assert x.unnz == 3
        assert x.nnz == 6 + 3 + 1
        assert x.multiplicities().tolist() == [3, 6, 1]  # lex order: (1,1,3),(1,3,5),(2,2,2)

    def test_norm_matches_dense(self, small_tensor):
        d = small_tensor.to_dense()
        assert small_tensor.norm_squared() == pytest.approx((d**2).sum())

    def test_density(self):
        x = SparseSymmetricTensor(2, 2, np.array([[0, 1]]), np.array([1.0]))
        assert x.density() == pytest.approx(2 / 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparseSymmetricTensor(2, 3, np.array([[0, 3]]), np.array([1.0]))
        with pytest.raises(ValueError):
            SparseSymmetricTensor(2, 3, np.array([[-1, 0]]), np.array([1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SparseSymmetricTensor(3, 5, np.array([[0, 1]]), np.array([1.0]))
        with pytest.raises(ValueError):
            SparseSymmetricTensor(2, 5, np.array([[0, 1]]), np.array([1.0, 2.0]))

    def test_empty_tensor(self):
        x = SparseSymmetricTensor(3, 5, np.zeros((0, 3), dtype=int), np.zeros(0))
        assert x.unnz == 0 and x.nnz == 0 and x.norm() == 0.0

    def test_expand_matches_dense(self, small_tensor):
        coo = small_tensor.expand()
        assert coo.nnz == small_tensor.nnz
        assert np.allclose(coo.to_dense(), small_tensor.to_dense())



class TestCOO:
    def test_duplicate_rejected(self):
        idx = np.array([[0, 1], [0, 1]])
        with pytest.raises(ValueError):
            COOTensor(2, 3, idx, np.ones(2))

    def test_sort_by_mode_order(self, rng):
        idx = rng.integers(0, 4, size=(10, 3))
        idx = np.unique(idx, axis=0)
        coo = COOTensor(3, 4, idx, rng.random(idx.shape[0]))
        sorted_coo = coo.sort_by_mode_order((2, 0, 1))
        cols = sorted_coo.indices[:, [2, 0, 1]]
        as_tuples = [tuple(r) for r in cols]
        assert as_tuples == sorted(as_tuples)

    def test_sort_invalid_order(self, rng):
        coo = COOTensor(3, 4, np.array([[0, 1, 2]]), np.ones(1))
        with pytest.raises(ValueError):
            coo.sort_by_mode_order((0, 0, 1))


class TestTrie:
    def test_node_counts(self):
        idx = np.array(
            [[0, 0, 1], [0, 0, 2], [0, 1, 1], [2, 0, 0]], dtype=np.int64
        )
        trie = build_trie(idx)
        assert trie.node_counts == [2, 3, 4]
        assert trie.n_entries == 4

    def test_child_ranges_cover_leaves(self):
        idx = np.array([[0, 0], [0, 1], [1, 0], [1, 2], [1, 3]], dtype=np.int64)
        trie = build_trie(idx)
        # root level: values 0,1 with children [0,2) and [2,5) at level 2
        assert trie.values[0].tolist() == [0, 1]
        assert trie.child_ptr[0].tolist() == [0, 2, 5]
        assert trie.values[1].tolist() == [0, 1, 0, 2, 3]
        assert trie.child_ptr[1].tolist() == [0, 1, 2, 3, 4, 5]

    def test_rejects_unsorted(self):
        idx = np.array([[1, 0], [0, 1]], dtype=np.int64)
        with pytest.raises(ValueError):
            build_trie(idx)

    def test_empty(self):
        trie = build_trie(np.zeros((0, 3), dtype=np.int64))
        assert trie.node_counts == [0, 0, 0]

    def test_storage_bytes_positive(self):
        idx = np.array([[0, 1], [0, 2]], dtype=np.int64)
        assert build_trie(idx).storage_bytes() > 0


class TestCSS:
    def test_delegation(self, small_tensor):
        css = CSSTensor.from_ucoo(small_tensor)
        assert css.order == small_tensor.order
        assert css.unnz == small_tensor.unnz
        assert np.array_equal(css.indices, small_tensor.indices)

    def test_from_arrays(self):
        css = CSSTensor.from_arrays(
            2, 4, np.array([[1, 0], [3, 2]]), np.array([1.0, 2.0])
        )
        assert css.indices.tolist() == [[0, 1], [2, 3]]

    def test_node_counts_shared_prefixes(self):
        css = CSSTensor.from_arrays(
            3,
            5,
            np.array([[0, 1, 2], [0, 1, 3], [0, 2, 4]]),
            np.ones(3),
        )
        assert css.node_counts == [1, 2, 3]


class TestCSF:
    def test_from_symmetric_expands(self, small_tensor):
        csf = CSFTensor.from_symmetric(small_tensor)
        assert csf.nnz == small_tensor.nnz

    def test_mode_order_stored(self, small_tensor):
        coo = small_tensor.expand()
        csf = CSFTensor(coo, (1, 0, 2, 3))
        assert csf.mode_order == (1, 0, 2, 3)
        # Permuted indices are lex sorted by the mode order.
        tup = [tuple(r) for r in csf.permuted_indices]
        assert tup == sorted(tup)

    def test_root_nodes_bounded_by_dim(self, small_tensor):
        csf = CSFTensor.from_symmetric(small_tensor)
        assert csf.node_counts[0] <= small_tensor.dim
