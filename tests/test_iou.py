"""Unit tests for IOU enumeration, ranking and linearization."""

import itertools

import numpy as np
import pytest

from repro.symmetry.combinatorics import sym_storage_size
from repro.symmetry.iou import (
    enumerate_iou,
    full_linear_index,
    iou_layout,
    rank_iou_array,
)


def brute_force_iou(order: int, dim: int) -> np.ndarray:
    rows = [
        tup
        for tup in itertools.product(range(dim), repeat=order)
        if all(tup[i] <= tup[i + 1] for i in range(order - 1))
    ]
    return np.array(rows, dtype=np.int64).reshape(len(rows), order)


class TestEnumeration:
    @pytest.mark.parametrize("order,dim", [(1, 5), (2, 4), (3, 3), (4, 3), (5, 2), (2, 1)])
    def test_matches_brute_force(self, order, dim):
        expected = brute_force_iou(order, dim)
        got = enumerate_iou(order, dim)
        assert np.array_equal(got, expected)

    def test_count_matches_storage_size(self):
        for order, dim in [(3, 5), (4, 4), (6, 3)]:
            assert enumerate_iou(order, dim).shape == (
                sym_storage_size(order, dim),
                order,
            )

    def test_lex_sorted(self):
        rows = enumerate_iou(3, 4)
        as_tuples = [tuple(r) for r in rows]
        assert as_tuples == sorted(as_tuples)

    def test_order_zero(self):
        assert enumerate_iou(0, 5).shape == (1, 0)

    def test_zero_dim(self):
        assert enumerate_iou(2, 0).shape == (0, 2)


class TestLayout:
    @pytest.mark.parametrize("order,dim", [(2, 4), (3, 4), (4, 3), (5, 3)])
    def test_parent_and_last(self, order, dim):
        rows, parent, last = iou_layout(order, dim)
        prev = enumerate_iou(order - 1, dim) if order > 1 else None
        assert np.array_equal(rows[:, -1], last)
        if prev is not None:
            assert np.array_equal(prev[parent], rows[:, :-1])

    def test_level_one(self):
        rows, parent, last = iou_layout(1, 5)
        assert np.array_equal(rows[:, 0], np.arange(5))
        assert np.array_equal(parent, np.zeros(5, dtype=np.int64))


class TestRanking:
    @pytest.mark.parametrize("order,dim", [(1, 6), (2, 5), (3, 4), (5, 3)])
    def test_rank_is_position(self, order, dim):
        rows = enumerate_iou(order, dim)
        ranks = rank_iou_array(rows, dim)
        assert np.array_equal(ranks, np.arange(rows.shape[0]))

    def test_rank_rejects_decreasing(self):
        with pytest.raises(ValueError):
            rank_iou_array(np.array([[2, 1]]), 4)

    def test_rank_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rank_iou_array(np.array([[0, 4]]), 4)

    def test_empty_inputs(self):
        assert rank_iou_array(np.zeros((0, 3), dtype=int), 4).shape == (0,)


class TestFullLinearIndex:
    def test_row_major(self):
        idx = np.array([[1, 2, 3], [0, 0, 0], [2, 1, 0]])
        lin = full_linear_index(idx, 4)
        assert lin.tolist() == [1 * 16 + 2 * 4 + 3, 0, 2 * 16 + 4]

    def test_matches_ravel_multi_index(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 5, size=(20, 4))
        expected = np.ravel_multi_index(tuple(idx.T), (5,) * 4)
        assert np.array_equal(full_linear_index(idx, 5), expected)
