"""Tests for reconstruction utilities."""

import numpy as np
import pytest

from repro import hoqri, random_sparse_symmetric
from repro.decomp import reconstruct_at, reconstruct_dense


@pytest.fixture(scope="module")
def decomposed():
    x = random_sparse_symmetric(3, 12, 80, seed=0)
    return x, hoqri(x, 3, max_iters=20, seed=0)


class TestReconstruct:
    def test_dense_is_symmetric(self, decomposed):
        _, res = decomposed
        dense = reconstruct_dense(res)
        assert np.allclose(dense, np.transpose(dense, (1, 0, 2)), atol=1e-10)
        assert np.allclose(dense, np.transpose(dense, (2, 1, 0)), atol=1e-10)

    def test_pointwise_matches_dense(self, decomposed):
        x, res = decomposed
        dense = reconstruct_dense(res)
        vals = reconstruct_at(res, x.indices)
        assert np.allclose(vals, dense[tuple(x.indices.T)], atol=1e-10)

    def test_pointwise_permutation_invariant(self, decomposed):
        x, res = decomposed
        forward = reconstruct_at(res, x.indices)
        reversed_idx = x.indices[:, ::-1].copy()
        assert np.allclose(reconstruct_at(res, reversed_idx), forward, atol=1e-10)

    def test_pointwise_chunking_invariant(self, decomposed):
        x, res = decomposed
        a = reconstruct_at(res, x.indices, chunk=7)
        b = reconstruct_at(res, x.indices, chunk=10_000)
        assert np.allclose(a, b)

    def test_shape_validation(self, decomposed):
        _, res = decomposed
        with pytest.raises(ValueError):
            reconstruct_at(res, np.zeros((4, 2), dtype=int))

    def test_norm_of_reconstruction_equals_core_norm(self, decomposed):
        """‖X̂‖ = ‖C‖ for orthonormal factors."""
        _, res = decomposed
        dense = reconstruct_dense(res)
        assert np.linalg.norm(dense) == pytest.approx(res.core.norm(), rel=1e-10)


class TestResidualNorm:
    def test_relative_error_consistency(self, decomposed):
        x, res = decomposed
        residual = np.linalg.norm(x.to_dense() - reconstruct_dense(res))
        assert residual / x.norm() == pytest.approx(res.relative_error, abs=1e-8)
