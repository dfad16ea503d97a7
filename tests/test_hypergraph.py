"""Tests for the hypergraph substrate: structure, adjacency, clustering."""

import numpy as np
import pytest

from repro.hypergraph import (
    Hypergraph,
    adjacency_tensor,
    cluster_factor,
    dummy_node_count,
    kmeans,
    normalized_mutual_information,
    planted_partition_hypergraph,
)


class TestHypergraph:
    def test_dedup_and_weights(self):
        hg = Hypergraph(5, [(0, 1), (1, 0), (2, 3, 4)], [1.0, 2.0, 1.5])
        assert hg.n_edges == 2
        assert hg.weights.tolist() == [3.0, 1.5]

    def test_node_range_validation(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(0, 5)])

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [()])

    def test_cardinalities_and_degree(self):
        hg = Hypergraph(4, [(0, 1), (0, 1, 2), (3,)])
        assert sorted(hg.cardinalities().tolist()) == [1, 2, 3]
        assert hg.max_cardinality() == 3
        deg = hg.degree()
        assert deg[0] == 2 and deg[3] == 1

    def test_restrict_cardinality(self):
        hg = Hypergraph(5, [(0, 1), (0, 1, 2), (0, 1, 2, 3)])
        small = hg.restrict_cardinality(2)
        assert small.n_edges == 1

    def test_duplicate_nodes_in_edge_collapse(self):
        hg = Hypergraph(4, [(1, 1, 2)])
        assert hg.edges[0] == (1, 2)


class TestAdjacency:
    def test_basic_construction(self):
        hg = Hypergraph(4, [(0, 1, 2), (1, 3)])
        t = adjacency_tensor(hg, 3)
        assert t.order == 3
        # one dummy node pads the cardinality-2 edge
        assert dummy_node_count(hg, 3) == 1
        assert t.dim == 5
        assert t.unnz == 2
        assert np.all(t.indices[:, 1:] >= t.indices[:, :-1])  # rows are IOU

    def test_padding_uses_distinct_dummies(self):
        hg = Hypergraph(3, [(0,)])
        t = adjacency_tensor(hg, 4)
        row = t.indices[0]
        assert row.tolist() == [0, 3, 4, 5]

    def test_default_order_is_max_cardinality(self):
        hg = Hypergraph(5, [(0, 1), (0, 1, 2, 3)])
        t = adjacency_tensor(hg)
        assert t.order == 4

    def test_restrict_drops_big_edges(self):
        hg = Hypergraph(5, [(0, 1), (0, 1, 2, 3, 4)])
        t = adjacency_tensor(hg, 3)
        assert t.unnz == 1

    def test_no_restrict_raises(self):
        hg = Hypergraph(5, [(0, 1, 2, 3)])
        with pytest.raises(ValueError):
            adjacency_tensor(hg, 3, restrict=False)

    def test_weights_preserved(self):
        hg = Hypergraph(3, [(0, 1), (1, 2)], [2.0, 5.0])
        t = adjacency_tensor(hg, 2)
        assert sorted(t.values.tolist()) == [2.0, 5.0]


class TestGenerators:
    def test_planted_partition_labels(self):
        hg, labels = planted_partition_hypergraph(60, 100, 3, seed=0)
        assert labels.shape == (60,)
        assert set(np.unique(labels)) == {0, 1, 2}
        assert hg.n_edges > 50  # dedup loses a few

    def test_cardinality_bounds(self):
        hg, _ = planted_partition_hypergraph(
            50, 80, 2, min_cardinality=3, max_cardinality=5, seed=1
        )
        cards = hg.cardinalities()
        assert cards.min() >= 2  # duplicate node collapse can shrink by one
        assert cards.max() <= 5

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            planted_partition_hypergraph(2, 10, 5)
        with pytest.raises(ValueError):
            planted_partition_hypergraph(10, 10, 2, min_cardinality=4, max_cardinality=2)


class TestKmeans:
    def test_separated_clusters(self, rng):
        a = rng.normal(0, 0.1, size=(30, 2))
        b = rng.normal(5, 0.1, size=(30, 2)) + np.array([5.0, 0.0])
        pts = np.vstack([a, b])
        labels, centers, inertia = kmeans(pts, 2, seed=0)
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:])) == 1
        assert labels[0] != labels[-1]

    def test_k_validation(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.random((5, 2)), 6)

    def test_k_equals_n(self, rng):
        pts = rng.random((4, 2))
        labels, _, inertia = kmeans(pts, 4, seed=0)
        assert inertia == pytest.approx(0.0, abs=1e-12)


class TestNMI:
    def test_perfect_match(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        assert normalized_mutual_information(a, a) == pytest.approx(1.0)

    def test_label_permutation_invariant(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([1, 1, 0, 0])
        assert normalized_mutual_information(a, b) == pytest.approx(1.0)

    def test_independent_labels_low(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, 2000)
        b = rng.integers(0, 4, 2000)
        assert normalized_mutual_information(a, b) < 0.02

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            normalized_mutual_information(np.zeros(3), np.zeros(4))


class TestEndToEndClustering:
    def test_tucker_recovers_communities(self):
        """The motivating application: hypergraph community detection."""
        from repro.decomp import hoqri

        hg, labels = planted_partition_hypergraph(
            80, 900, 3, min_cardinality=2, max_cardinality=3, p_intra=0.95, seed=7
        )
        tensor = adjacency_tensor(hg, 3)
        res = hoqri(tensor, 3, max_iters=60, seed=7)
        pred = cluster_factor(res.factor, 3, n_real_nodes=hg.n_nodes, seed=7)
        nmi = normalized_mutual_information(pred, labels)
        assert nmi > 0.5
