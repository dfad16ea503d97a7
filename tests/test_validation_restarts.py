"""Tests for the restart protocol."""

import pytest

from repro import hoqri, random_sparse_symmetric
from repro.decomp import best_of_restarts, hooi


class TestBestOfRestarts:
    def test_returns_best(self):
        x = random_sparse_symmetric(3, 15, 80, seed=3)
        best = best_of_restarts(hoqri, x, 3, n_restarts=4, max_iters=8)
        singles = [
            hoqri(x, 3, init="random", seed=k, max_iters=8).relative_error
            for k in range(4)
        ]
        assert best.relative_error == pytest.approx(min(singles), abs=1e-12)

    def test_single_restart(self):
        x = random_sparse_symmetric(3, 10, 40, seed=4)
        res = best_of_restarts(hooi, x, 2, n_restarts=1, max_iters=3)
        assert res.iterations >= 1

    def test_invalid_count(self):
        x = random_sparse_symmetric(3, 10, 40, seed=5)
        with pytest.raises(ValueError):
            best_of_restarts(hoqri, x, 2, n_restarts=0)

    def test_init_kwarg_overridden(self):
        x = random_sparse_symmetric(3, 10, 40, seed=6)
        res = best_of_restarts(
            hoqri, x, 2, n_restarts=2, max_iters=3, init="hosvd", seed=9
        )
        assert res.iterations >= 1
