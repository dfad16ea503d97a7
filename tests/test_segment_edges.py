"""Edge cases for the vectorized segment reductions (repro.core._segment).

``segment_sum_by_ptr`` papers over ``np.add.reduceat``'s empty-segment
misbehaviour; ``scatter_add_rows`` reimplements ``np.add.at`` via
sort-and-reduce. Both are cross-checked against loop/``np.add.at``
references on the degenerate shapes the kernels can produce.
``add_rows_in_order`` (the S³TTMc top-level fold) and ``sum_runs`` (every
degree sum) must sum strictly left to right, which is checked bitwise on
values whose sum depends on the order.
"""

import numpy as np
import pytest

from repro.core._segment import (
    add_rows_in_order,
    fold_rows,
    group_rows,
    scatter_add_rows,
    segment_sum_by_ptr,
    sum_runs,
)


def _segment_ref(contrib, node_ptr):
    n = node_ptr.shape[0] - 1
    out = np.zeros((n,) + contrib.shape[1:], dtype=contrib.dtype)
    for i in range(n):
        out[i] = contrib[node_ptr[i] : node_ptr[i + 1]].sum(axis=0)
    return out


def _check_segment(contrib, node_ptr):
    node_ptr = np.asarray(node_ptr, dtype=np.int64)
    got = segment_sum_by_ptr(contrib, node_ptr)
    ref = _segment_ref(contrib, node_ptr)
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got, ref)


def _rows(n, width=3, seed=0):
    rng = np.random.default_rng(seed)
    # Integer-valued doubles: every summation order is exact, so the
    # references compare bitwise.
    return rng.integers(-50, 50, size=(n, width)).astype(np.float64)


class TestSegmentSumByPtr:
    def test_zero_nodes(self):
        out = segment_sum_by_ptr(_rows(0), np.array([0]))
        assert out.shape == (0, 3)

    def test_single_node(self):
        _check_segment(_rows(5), [0, 5])

    def test_leading_empty_segment(self):
        _check_segment(_rows(5), [0, 0, 2, 5])

    def test_trailing_empty_segment(self):
        _check_segment(_rows(4), [0, 2, 4, 4])

    def test_interior_empty_runs(self):
        _check_segment(_rows(6), [0, 1, 1, 1, 4, 4, 6])

    def test_all_segments_empty(self):
        _check_segment(_rows(0), [0, 0, 0, 0])

    def test_zero_edges_nonzero_nodes(self):
        out = segment_sum_by_ptr(_rows(0), np.array([0, 0, 0]))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_singleton_segments(self):
        _check_segment(_rows(4), [0, 1, 2, 3, 4])

    def test_random_against_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n_nodes = int(rng.integers(1, 8))
            lens = rng.integers(0, 4, size=n_nodes)
            node_ptr = np.concatenate([[0], np.cumsum(lens)])
            _check_segment(_rows(int(node_ptr[-1]), seed=int(rng.integers(1e6))), node_ptr)


class TestScatterAddRows:
    def _check(self, rows, contrib, n_out=None):
        rows = np.asarray(rows, dtype=np.int64)
        n_out = int(rows.max()) + 1 if n_out is None else n_out
        got = np.zeros((n_out,) + contrib.shape[1:])
        ref = got.copy()
        scatter_add_rows(got, rows, contrib)
        np.add.at(ref, rows, contrib)
        np.testing.assert_array_equal(got, ref)

    def test_empty_rows_is_noop(self):
        out = np.ones((3, 2))
        scatter_add_rows(out, np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
        np.testing.assert_array_equal(out, np.ones((3, 2)))

    def test_single_row(self):
        self._check([2], _rows(1))

    def test_all_rows_identical(self):
        self._check([1, 1, 1, 1], _rows(4))

    def test_duplicate_heavy(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 3, size=64)
        self._check(rows, _rows(64, seed=4))

    def test_unsorted_rows(self):
        self._check([5, 0, 5, 2, 0, 5], _rows(6))

    def test_accumulates_into_existing(self):
        out = np.full((4, 2), 10.0)
        contrib = _rows(3, width=2)
        rows = np.array([0, 3, 0], dtype=np.int64)
        scatter_add_rows(out, rows, contrib)
        ref = np.full((4, 2), 10.0)
        np.add.at(ref, rows, contrib)
        np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_against_add_at(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 100))
        rows = rng.integers(0, 10, size=n)
        self._check(rows, _rows(n, width=5, seed=seed + 100), n_out=10)


def _sequential(out, rows, contrib):
    ref = out.copy()
    for r, c in zip(rows, contrib):
        ref[r] += c
    return ref


def _wide_range(n, width, seed):
    # Magnitudes over 12 decades: any reassociation changes the bits.
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, width)) * 10.0 ** rng.integers(-6, 6, (n, 1))


class TestAddRowsInOrder:
    @pytest.mark.parametrize("width", [1, 2, 7, 36])
    @pytest.mark.parametrize("seed", range(4))
    def test_sequential_and_split_invariant(self, width, seed):
        rng = np.random.default_rng(seed)
        n = 300
        rows = rng.integers(0, 12, size=n)  # rows hit up to ~50 times
        contrib = _wide_range(n, width, seed)
        start = _wide_range(12, width, seed + 10)
        ref = _sequential(start, rows, contrib)
        got = start.copy()
        add_rows_in_order(got, rows, contrib)
        np.testing.assert_array_equal(got, ref)
        cuts = [0, *sorted(rng.integers(0, n, size=4).tolist()), n]
        split = start.copy()
        for a, b in zip(cuts[:-1], cuts[1:]):
            add_rows_in_order(split, rows[a:b], contrib[a:b])
        np.testing.assert_array_equal(split, ref)

    def test_empty_is_noop(self):
        out = np.ones((3, 2))
        add_rows_in_order(out, np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
        np.testing.assert_array_equal(out, np.ones((3, 2)))

    def test_group_layout(self):
        # Pieces [0, 4) and [4, 6): heads grouped by multiplicity, each
        # head's slot block = the row itself, then its contributions.
        rows = np.array([3, 1, 3, 3, 1, 1])
        g = group_rows(rows, np.array([0, 4, 6]))
        np.testing.assert_array_equal(g.heads, [1, 3, 1])
        np.testing.assert_array_equal(g.head_ptr, [0, 2, 3])
        np.testing.assert_array_equal(g.slots, [6, 1, 7, 0, 2, 3, 8, 4, 5])
        assert g.groups == (((1, 1, 0, 0), (3, 1, 2, 1)), ((2, 1, 0, 0),))
        # Rows 0 and 2 both get two: one group, laid out run by run.
        g = group_rows(np.array([2, 0, 2, 0, 5, 5, 5]))
        np.testing.assert_array_equal(g.heads, [0, 2, 5])
        np.testing.assert_array_equal(g.slots, [7, 8, 1, 0, 3, 2, 9, 4, 5, 6])
        assert g.groups == (((2, 2, 0, 0), (3, 1, 6, 2)),)

    def test_fold_piecewise_matches_sequential(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 5, size=40)
        contrib = _wide_range(40, 3, 7)
        bounds = np.array([0, 9, 9, 25, 40])
        g = group_rows(rows, bounds)
        out = _wide_range(5, 3, 8)
        ref = _sequential(out, rows, contrib)
        for p in range(4):
            s0, s1 = bounds[p] + g.head_ptr[p], bounds[p + 1] + g.head_ptr[p + 1]
            h0, h1 = g.head_ptr[p], g.head_ptr[p + 1]
            source = np.concatenate((contrib, out[g.heads]))
            sums = np.empty((h1 - h0, 3))
            fold_rows(source[g.slots[s0:s1]], g.groups[p], sums)
            out[g.heads[h0:h1]] = sums
        np.testing.assert_array_equal(out, ref)


class TestSumRuns:
    @pytest.mark.parametrize(
        "d,n,width", [(1, 4, 3), (2, 500, 10), (9, 1, 1), (9, 6, 1), (12, 1, 5), (30, 3, 2)]
    )
    @pytest.mark.parametrize("degree_major", [True, False])
    def test_left_to_right(self, d, n, width, degree_major):
        flat = _wide_range(d * n, width, d + n)
        # Degree-major (contiguous runs) or node-major (a strided view).
        runs = (
            flat.reshape(d, n, width)
            if degree_major
            else flat.reshape(n, d, width).transpose(1, 0, 2)
        )
        ref = runs[0].copy()
        for k in range(1, d):
            for i in range(n):
                for c in range(width):
                    ref[i, c] = ref[i, c] + runs[k, i, c]
        got = np.empty((n, width))
        sum_runs(runs, got)
        np.testing.assert_array_equal(got, ref)
