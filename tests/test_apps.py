"""Tests for the applications layer: applies, eigenpairs, centrality, links."""

import numpy as np
import pytest

from repro import hoqri, random_sparse_symmetric
from repro.apps import (
    auc_score,
    holdout_split,
    link_prediction_auc,
    sshopm,
    symmetric_apply,
    z_eigenvector_centrality,
)
from repro.formats import SparseSymmetricTensor
from repro.hypergraph import Hypergraph, adjacency_tensor, planted_partition_hypergraph
from tests.conftest import make_random_tensor


class TestSymmetricApply:
    def test_matches_dense_contraction(self, rng):
        x = make_random_tensor(3, 8, 30, rng)
        v = rng.standard_normal(8)
        dense = x.to_dense()
        expected = np.einsum("ijk,j,k->i", dense, v, v)
        assert np.allclose(symmetric_apply(x, v), expected, atol=1e-10)

    def test_order4(self, rng):
        x = make_random_tensor(4, 6, 25, rng)
        v = rng.standard_normal(6)
        expected = np.einsum("ijkl,j,k,l->i", x.to_dense(), v, v, v)
        assert np.allclose(symmetric_apply(x, v), expected, atol=1e-10)

    def test_length_validation(self, rng):
        x = make_random_tensor(3, 7, 20, rng)
        with pytest.raises(ValueError):
            symmetric_apply(x, np.ones(5))

    def test_matrix_case_is_matvec(self, rng):
        x = make_random_tensor(2, 9, 20, rng)
        v = rng.standard_normal(9)
        assert np.allclose(symmetric_apply(x, v), x.to_dense() @ v, atol=1e-12)


class TestSSHOPM:
    def test_matrix_eigenpair(self, rng):
        """Order-2 SS-HOPM finds a matrix eigenpair."""
        x = make_random_tensor(2, 8, 25, rng)
        pair = sshopm(x, seed=0, max_iters=2000, tol=1e-13)
        assert pair.residual(x) < 1e-6
        dense_eigs = np.linalg.eigvalsh(x.to_dense())
        assert min(abs(pair.eigenvalue - e) for e in dense_eigs) < 1e-6

    def test_order3_eigenpair_residual(self, rng):
        x = make_random_tensor(3, 6, 20, rng)
        pair = sshopm(x, seed=1, max_iters=3000, tol=1e-13)
        assert np.linalg.norm(pair.eigenvector) == pytest.approx(1.0, abs=1e-10)
        if pair.converged:
            assert pair.residual(x) < 1e-5

    def test_diagonal_tensor_known_eigenvalue(self):
        """X with X(i,i,i)=d_i has Z-eigenpairs (d_i, e_i)."""
        idx = np.array([[i, i, i] for i in range(5)])
        d = np.array([5.0, 1.0, 1.0, 0.5, 0.2])
        x = SparseSymmetricTensor(3, 5, idx, d)
        e0 = np.zeros(5)
        e0[0] = 1.0
        pair = sshopm(x, x0=e0, max_iters=50)
        assert pair.eigenvalue == pytest.approx(5.0, abs=1e-8)
        assert abs(pair.eigenvector[0]) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_zero_start(self, rng):
        x = make_random_tensor(3, 5, 10, rng)
        with pytest.raises(ValueError):
            sshopm(x, x0=np.zeros(5))

    def test_concave_mode_runs(self, rng):
        x = make_random_tensor(3, 6, 15, rng)
        pair = sshopm(x, seed=2, concave=True, max_iters=500)
        assert np.isfinite(pair.eigenvalue)


class TestCentrality:
    def test_star_hypergraph_center_most_central(self):
        """A hub node in every hyperedge dominates centrality."""
        edges = [(0, i, i + 1) for i in range(1, 8, 2)]
        hg = Hypergraph(9, edges)
        tensor = adjacency_tensor(hg, 3)
        c = z_eigenvector_centrality(tensor, n_real_nodes=9)
        assert c[0] == max(c)
        assert c.sum() == pytest.approx(1.0)

    def test_symmetric_nodes_equal_scores(self):
        hg = Hypergraph(4, [(0, 1, 2), (0, 1, 3)])
        tensor = adjacency_tensor(hg, 3)
        c = z_eigenvector_centrality(tensor, n_real_nodes=4)
        assert c[0] == pytest.approx(c[1], abs=1e-8)
        assert c[2] == pytest.approx(c[3], abs=1e-8)

    def test_rejects_negative_tensor(self):
        x = SparseSymmetricTensor(3, 4, np.array([[0, 1, 2]]), np.array([-1.0]))
        with pytest.raises(ValueError):
            z_eigenvector_centrality(x)


class TestLinkPrediction:
    def test_auc_perfect_separation(self):
        assert auc_score(np.array([2.0, 3.0]), np.array([0.0, 1.0])) == 1.0
        assert auc_score(np.array([0.0]), np.array([5.0])) == 0.0

    def test_auc_ties_half(self):
        assert auc_score(np.ones(4), np.ones(4)) == pytest.approx(0.5)

    def test_holdout_split_partitions(self):
        x = random_sparse_symmetric(3, 20, 100, seed=0)
        train, held_idx, held_vals = holdout_split(x, 0.25, seed=1)
        assert train.unnz + held_idx.shape[0] == 100
        assert held_idx.shape[0] == 25

    def test_holdout_fraction_validation(self):
        x = random_sparse_symmetric(3, 10, 20, seed=0)
        with pytest.raises(ValueError):
            holdout_split(x, 1.5)

    def test_end_to_end_beats_chance(self):
        """Community-structured hypergraph: held-out edges score above
        random non-edges."""
        hg, _ = planted_partition_hypergraph(
            50, 600, 3, min_cardinality=3, max_cardinality=3, p_intra=0.95, seed=3
        )
        tensor = adjacency_tensor(hg, 3)
        train, held_idx, _ = holdout_split(tensor, 0.2, seed=3)
        result = hoqri(train, 3, max_iters=40, seed=3)
        auc = link_prediction_auc(result, held_idx, tensor, seed=3)
        assert auc > 0.6, auc
