"""Tests for the distributed-memory communication model."""

import numpy as np
import pytest

from repro.data import random_sparse_symmetric
from repro.parallel import measure_chunk_costs


@pytest.fixture(scope="module")
def tensor():
    return random_sparse_symmetric(4, 60, 400, seed=0)


class TestMeasureChunkCosts:
    def test_one_cost_per_chunk_all_positive(self, tensor):
        factor = np.random.default_rng(0).standard_normal((tensor.dim, 3))
        costs = measure_chunk_costs(tensor, factor, 4)
        assert len(costs) == 4
        assert all(np.isfinite(c) and c > 0 for c in costs)

    def test_cost_monotone_in_rank(self, tensor):
        # Higher rank strictly widens every level's row blocks, so the
        # summed measured chunk cost must grow with it. Rank 2 -> 8 is a
        # ~10x closed-form work increase — far above timer noise.
        rng = np.random.default_rng(1)
        low = sum(
            measure_chunk_costs(tensor, rng.standard_normal((tensor.dim, 2)), 3, repeats=3)
        )
        high = sum(
            measure_chunk_costs(tensor, rng.standard_normal((tensor.dim, 8)), 3, repeats=3)
        )
        assert high > low

    def test_costs_track_partition_estimate(self, tensor):
        # The measured per-chunk times are what the Figure-6 simulator
        # schedules; they must at least be balanced to the same order the
        # cost model promises (no chunk 10x another on a balanced split).
        factor = np.random.default_rng(2).standard_normal((tensor.dim, 3))
        costs = measure_chunk_costs(tensor, factor, 4, repeats=3)
        assert max(costs) < 10 * min(costs)
