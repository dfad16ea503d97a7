"""Tests for the randomized HOSVD extension."""

import numpy as np
import pytest

from repro.data import planted_lowrank, random_sparse_symmetric
from repro.decomp.hosvd import hosvd_init
from repro.runtime import ExecContext
from repro.runtime.budget import MemoryBudget, MemoryLimitError


class TestRandomizedHosvd:
    def test_matches_exact_on_lowrank(self):
        """On a (noisy) low-rank tensor the randomized subspace matches."""
        x = planted_lowrank(3, 25, 3, None, noise=0.01, seed=0)
        exact = hosvd_init(x, 3, method="gram")
        approx = hosvd_init(x, 3, method="randomized", seed=1, n_power_iters=6)
        p_exact = exact @ exact.T
        p_approx = approx @ approx.T
        assert np.linalg.norm(p_exact - p_approx) < 1e-6

    def test_orthonormal(self):
        x = random_sparse_symmetric(4, 30, 200, seed=2)
        u = hosvd_init(x, 4, method="randomized", seed=0)
        assert np.allclose(u.T @ u, np.eye(4), atol=1e-10)

    def test_energy_close_to_exact_on_random_data(self):
        """Captured spectral energy within a few percent of exact HOSVD."""
        x = random_sparse_symmetric(3, 40, 300, seed=3)
        x1 = x.to_dense().reshape(40, -1)
        exact = hosvd_init(x, 5, method="gram")
        approx = hosvd_init(x, 5, method="randomized", seed=0, n_power_iters=8)
        e_exact = np.linalg.norm(exact.T @ x1) ** 2
        e_approx = np.linalg.norm(approx.T @ x1) ** 2
        assert e_approx >= 0.95 * e_exact

    def test_avoids_gram_memory_wall(self):
        """randomized fits a budget where the dense Gram cannot."""
        x = random_sparse_symmetric(3, 3000, 500, seed=4)
        budget = 30 * 2**20  # Gram: 3000^2 * 8 = 72 MB > 30 MB
        with ExecContext(budget=MemoryBudget(limit_bytes=budget)):
            with pytest.raises(MemoryLimitError):
                hosvd_init(x, 4, method="gram")
        with ExecContext(budget=MemoryBudget(limit_bytes=budget)):
            u = hosvd_init(x, 4, method="randomized", seed=0)
        assert u.shape == (3000, 4)

    def test_deterministic_by_seed(self):
        x = random_sparse_symmetric(3, 20, 80, seed=5)
        a = hosvd_init(x, 3, method="randomized", seed=7)
        b = hosvd_init(x, 3, method="randomized", seed=7)
        assert np.array_equal(a, b)

    def test_unknown_method(self):
        x = random_sparse_symmetric(3, 10, 20, seed=6)
        with pytest.raises(ValueError):
            hosvd_init(x, 2, method="lanczos")

    def test_used_as_decomposition_init(self):
        from repro.decomp import hoqri

        x = random_sparse_symmetric(3, 25, 120, seed=8)
        u0 = hosvd_init(x, 3, method="randomized", seed=0)
        res = hoqri(x, 3, max_iters=5, init=u0)
        assert res.iterations >= 1
