"""Tests for the BCSS blocked symmetric storage model."""

import itertools

import pytest

from repro.formats import bcss_storage_entries
from repro.symmetry.combinatorics import dense_size, sym_storage_size


class TestStorageModel:
    def test_entries_formula(self):
        # One zero-padded 2x2x2 brick per non-decreasing tuple of the
        # 4 blocks covering 7 indices.
        kept = [
            t for t in itertools.product(range(4), repeat=3) if list(t) == sorted(t)
        ]
        assert bcss_storage_entries(3, 7, 2) == len(kept) * 2**3

    def test_block1_equals_compact(self):
        assert bcss_storage_entries(4, 9, 1) == sym_storage_size(4, 9)

    def test_single_block_equals_full_padded(self):
        assert bcss_storage_entries(3, 7, 7) == dense_size(3, 7)

    def test_monotone_bounds(self):
        """Compact <= BCSS; BCSS can exceed full with padding (the
        related-work caveat the paper cites)."""
        for block in (1, 2, 3, 5):
            entries = bcss_storage_entries(4, 10, block)
            assert entries >= sym_storage_size(4, 10)
        assert bcss_storage_entries(4, 10, 7) > dense_size(4, 10) / 2

    def test_high_order_overhead_grows(self):
        """Within-block redundancy worsens with order at fixed block size."""
        r4 = bcss_storage_entries(4, 16, 4) / sym_storage_size(4, 16)
        r6 = bcss_storage_entries(6, 16, 4) / sym_storage_size(6, 16)
        assert r6 > r4

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            bcss_storage_entries(3, 5, 0)
