"""Tests for the sub-multiset lattice structure."""

import numpy as np
import pytest

from repro.core import lattice
from repro.core.lattice import build_lattice, unique_rows
from repro.symmetry.combinatorics import binomial


def void_view_unique_rows(a):
    """The byte-wise dedup the ranked one replaced: ``np.unique`` over one
    void element per row."""
    n, w = a.shape
    if n == 0 or w == 0:
        return (a[:1].copy() if (n and w == 0) else a.copy()), np.zeros(n, dtype=np.int64)
    contig = np.ascontiguousarray(a)
    view = contig.view(np.dtype((np.void, contig.dtype.itemsize * w))).ravel()
    _, first, inverse = np.unique(view, return_index=True, return_inverse=True)
    return contig[first], inverse.astype(np.int64)


class TestUniqueRows:
    def test_basic(self, rng):
        a = rng.integers(0, 3, size=(50, 4))
        uniq, inv = unique_rows(a)
        assert np.array_equal(uniq[inv], a)
        assert np.unique(uniq, axis=0).shape[0] == uniq.shape[0]

    def test_empty(self):
        uniq, inv = unique_rows(np.zeros((0, 3), dtype=np.int64))
        assert uniq.shape == (0, 3) and inv.shape == (0,)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            unique_rows(np.array([1, 2, 3]))


class TestRankedDedupMatchesVoidView:
    """The ranked-key dedup returns exactly what the void-view dedup does:
    the same unique rows in the same (byte-lexicographic) order."""

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize(
        "high", [3, 255, 256, 300, 65_535, 65_536, 70_000, 1 << 40]
    )
    @pytest.mark.parametrize("rows", [0, 1, 40, 2_000])
    def test_random_rows(self, width, high, rows):
        rng = np.random.default_rng(high * 7 + width * 131 + rows)
        a = rng.integers(0, high + 1, size=(rows, width), dtype=np.int64)
        if rows > 1:
            a[rows // 2 :] = a[: rows - rows // 2]  # duplicates
            a[0, 0] = high
        self._assert_same(a)

    @pytest.mark.parametrize(
        "a",
        [
            np.zeros((5, 0), dtype=np.int64),
            np.array([[-1, 2], [3, -70_000], [-1, 2], [0, 0]], dtype=np.int64),
            np.array([[1, 256], [256, 1], [0, 65_536], [1, 256]], dtype=np.int32),
        ],
        ids=["width-0", "negative", "int32"],
    )
    def test_edge_inputs(self, a):
        self._assert_same(a)

    def test_overflowing_keys_redensify(self):
        """Six columns of values near 2**40 overflow an int64 key at once."""
        rng = np.random.default_rng(5)
        a = rng.integers(0, 4, size=(3_000, 6), dtype=np.int64) * (1 << 40)
        self._assert_same(a)

    @staticmethod
    def _assert_same(a):
        uniq, inverse = unique_rows(a)
        ref_uniq, ref_inverse = void_view_unique_rows(a)
        assert uniq.dtype == ref_uniq.dtype and inverse.dtype == ref_inverse.dtype
        assert np.array_equal(uniq, ref_uniq)
        assert np.array_equal(inverse, ref_inverse)

    @pytest.mark.parametrize("memoize", ["global", "nonzero"])
    @pytest.mark.parametrize(
        "order, dim, unnz", [(3, 300, 400), (4, 70_000, 300), (6, 8, 200)]
    )
    def test_lattice_identical(self, monkeypatch, memoize, order, dim, unnz):
        rng = np.random.default_rng(order * dim + unnz)
        idx = np.sort(rng.integers(0, dim, size=(unnz, order)), axis=1)
        got = build_lattice(idx, memoize, keep_keys=True)
        monkeypatch.setattr(lattice, "unique_rows", void_view_unique_rows)
        ref = build_lattice(idx, memoize, keep_keys=True)
        assert np.array_equal(got.leaf_values, ref.leaf_values)
        for level in ref.levels:
            g, r = got.levels[level], ref.levels[level]
            assert g.n_nodes == r.n_nodes
            assert np.array_equal(g.value, r.value)
            assert np.array_equal(g.child, r.child)
            assert (g.node is None) == (r.node is None)
            assert r.node is None or np.array_equal(g.node, r.node)
            assert [(x.degree, x.edge_offset) for x in g.groups] == [
                (x.degree, x.edge_offset) for x in r.groups
            ]
            assert all(np.array_equal(x.nodes, y.nodes) for x, y in zip(g.groups, r.groups))
        for level in ref.node_keys:
            assert np.array_equal(got.node_keys[level], ref.node_keys[level])


class TestLatticeStructure:
    def test_single_distinct_nonzero_node_counts(self):
        """One all-distinct non-zero: C(N,l) nodes per level (Section III-D)."""
        idx = np.array([[0, 2, 4, 7]])
        lat = build_lattice(idx)
        assert lat.order == 4
        for level in range(2, 5):
            assert lat.level_nodes(level) == binomial(4, level)
        assert lat.level_nodes(1) == 4

    def test_single_repeated_nonzero(self):
        """Repeated values collapse sub-multisets."""
        idx = np.array([[1, 1, 3]])
        lat = build_lattice(idx)
        # level-2 sub-multisets of {1,1,3}: {1,1}, {1,3} -> 2 nodes
        assert lat.level_nodes(2) == 2
        assert lat.level_nodes(1) == 2  # leaves {1}, {3}
        top = lat.levels[3]
        assert top.n_edges == 2  # distinct deletions: delete 1, delete 3

    def test_all_equal_nonzero(self):
        idx = np.array([[2, 2, 2, 2]])
        lat = build_lattice(idx)
        for level in range(1, 4):
            assert lat.level_nodes(level) == 1
        assert lat.levels[4].n_edges == 1

    def test_global_memoization_shares(self):
        """Two non-zeros sharing a sub-multiset share nodes globally."""
        idx = np.array([[0, 1, 2], [0, 1, 3]])
        lat_global = build_lattice(idx, "global")
        lat_local = build_lattice(idx, "nonzero")
        # shared level-2 node {0,1}
        assert lat_global.level_nodes(2) == 5  # {0,1},{0,2},{1,2},{0,3},{1,3}
        assert lat_local.level_nodes(2) == 6
        # leaves always global
        assert lat_global.level_nodes(1) == 4
        assert lat_local.level_nodes(1) == 4

    def test_degree_groups_partition_edges(self, rng):
        idx = np.sort(rng.integers(0, 6, size=(20, 4)), axis=1)
        idx = np.unique(idx, axis=0)
        lat = build_lattice(idx)
        for level, lv in lat.levels.items():
            covered = 0
            seen_nodes = []
            for g in lv.groups:
                assert g.degree >= 1
                covered += g.n_edges
                seen_nodes.extend(g.nodes.tolist())
            assert covered == lv.n_edges
            assert sorted(seen_nodes) == list(range(lv.n_nodes))

    def test_group_edges_are_node_major(self, rng):
        """Within a degree group, each node's edges are consecutive."""
        idx = np.sort(rng.integers(0, 5, size=(15, 3)), axis=1)
        idx = np.unique(idx, axis=0)
        lat = build_lattice(idx, keep_keys=True)
        top = lat.levels[3]
        assert top.node is not None
        for g in top.groups:
            for k in range(g.n_nodes):
                sl = slice(g.edge_offset + k * g.degree, g.edge_offset + (k + 1) * g.degree)
                assert np.all(top.node[sl] == g.nodes[k])

    def test_keep_keys(self):
        idx = np.array([[0, 1, 2]])
        lat = build_lattice(idx, keep_keys=True)
        assert lat.node_keys is not None
        assert np.array_equal(lat.node_keys[3], idx)
        assert lat.node_keys[2].shape == (3, 2)
        lat2 = build_lattice(idx)
        assert lat2.node_keys is None

    def test_total_edges(self):
        idx = np.array([[0, 1, 2]])
        lat = build_lattice(idx)
        # level 3: 3 deletions; level 2: 3 nodes x 2 deletions
        assert lat.total_edges == 3 + 6

    def test_rejects_order_one(self):
        with pytest.raises(ValueError):
            build_lattice(np.array([[1]]))

    def test_rejects_bad_memoize(self):
        with pytest.raises(ValueError):
            build_lattice(np.array([[0, 1]]), "fancy")

    def test_children_reference_valid_nodes(self, rng):
        idx = np.sort(rng.integers(0, 6, size=(25, 5)), axis=1)
        idx = np.unique(idx, axis=0)
        lat = build_lattice(idx)
        for level in range(2, 6):
            lv = lat.levels[level]
            below = lat.level_nodes(level - 1)
            assert lv.child.max() < below
            assert lv.child.min() >= 0
