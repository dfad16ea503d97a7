"""Unit tests for repro.symmetry.combinatorics."""

import math

import numpy as np
import pytest

from repro.symmetry.combinatorics import (
    binomial,
    dense_size,
    permutation_counts_array,
    storage_compression_ratio,
    sym_storage_size,
)


class TestBinomial:
    def test_matches_math_comb(self):
        for n in range(12):
            for k in range(n + 1):
                assert binomial(n, k) == math.comb(n, k)

    def test_outside_triangle_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0
        assert binomial(-2, 0) == 0

    def test_symmetry_identity(self):
        assert binomial(10, 3) == binomial(10, 7)


class TestStorageSize:
    def test_table_values(self):
        # S_{N,I} = C(N+I-1, N)
        assert sym_storage_size(3, 2) == 4  # the paper's example tensor T
        assert sym_storage_size(2, 3) == 6
        assert sym_storage_size(1, 7) == 7
        assert sym_storage_size(0, 5) == 1

    def test_zero_dim(self):
        assert sym_storage_size(3, 0) == 0

    def test_pascal_recurrence(self):
        # S_{N,I} = S_{N-1,I} + S_{N,I-1}
        for order in range(1, 6):
            for dim in range(1, 6):
                assert sym_storage_size(order, dim) == sym_storage_size(
                    order - 1, dim
                ) + sym_storage_size(order, dim - 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sym_storage_size(-1, 3)
        with pytest.raises(ValueError):
            sym_storage_size(2, -1)


class TestCompressionRatio:
    def test_approaches_factorial(self):
        # lim_{I→∞} I^N / S_{N,I} = N!  (Section II-B)
        ratio = storage_compression_ratio(3, 10_000)
        assert ratio == pytest.approx(6.0, rel=1e-3)

    def test_small_dim(self):
        assert storage_compression_ratio(2, 2) == pytest.approx(4 / 3)

    def test_dense_size(self):
        assert dense_size(3, 4) == 64
        assert dense_size(0, 4) == 1


class TestPermutationCounts:
    def test_array_matches_scalar(self):
        rows = np.array([[1, 3, 5], [1, 1, 3], [2, 2, 2], [0, 1, 1]])
        counts = permutation_counts_array(rows)
        assert counts.tolist() == [6, 3, 1, 3]

    def test_array_unsorted_rows(self):
        rows = np.array([[5, 3, 1], [3, 1, 1]])
        assert permutation_counts_array(rows).tolist() == [6, 3]

    def test_empty(self):
        assert permutation_counts_array(np.zeros((0, 4), dtype=int)).shape == (0,)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            permutation_counts_array(np.array([1, 2, 3]))

    def test_large_order(self):
        row = np.arange(12).reshape(1, -1)
        assert permutation_counts_array(row)[0] == math.factorial(12)
