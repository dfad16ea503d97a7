"""The instrumented kernels reproduce the paper's flop formulas exactly.

Section III-D / Table II: with per-non-zero memoization and all-distinct
index tuples, the SymProp kernel performs exactly
``C^SP = Σ_{l=2}^{N-1} (2l−1)·C(N,l)·S_{l,R}·unnz + 2N·S_{N-1,R}·unnz``
flops, and the CSS baseline the same with ``R^l``. This is the strongest
form of the complexity-analysis reproduction: measured == modeled, not
measured ≈ modeled.
"""

import numpy as np
import pytest

from repro.baselines.css_ttmc import css_s3ttmc
from repro.core import KernelStats, s3ttmc
from repro.perfmodel.complexity import (
    c_css,
    c_sp,
    table2_complexities,
    total_css,
    total_sp,
)
from tests.conftest import make_random_tensor


@pytest.mark.parametrize("order,dim,rank,n", [(4, 12, 3, 20), (5, 15, 2, 15), (3, 10, 4, 25)])
class TestExactFlopCounts:
    def test_symprop_total(self, order, dim, rank, n, rng):
        x = make_random_tensor(order, dim, n, rng, distinct=True)
        u = rng.random((dim, rank))
        stats = KernelStats()
        s3ttmc(x, u, memoize="nonzero", stats=stats)
        assert stats.kernel_flops == total_sp(order, rank, x.unnz)

    def test_symprop_per_level(self, order, dim, rank, n, rng):
        x = make_random_tensor(order, dim, n, rng, distinct=True)
        u = rng.random((dim, rank))
        stats = KernelStats()
        s3ttmc(x, u, memoize="nonzero", stats=stats)
        for level in range(2, order):
            assert stats.level_flops[level] == c_sp(level, order, rank, x.unnz)

    def test_css_total(self, order, dim, rank, n, rng):
        x = make_random_tensor(order, dim, n, rng, distinct=True)
        u = rng.random((dim, rank))
        stats = KernelStats()
        css_s3ttmc(x, u, memoize="nonzero", stats=stats)
        assert stats.kernel_flops == total_css(order, rank, x.unnz)

    def test_css_per_level(self, order, dim, rank, n, rng):
        x = make_random_tensor(order, dim, n, rng, distinct=True)
        u = rng.random((dim, rank))
        stats = KernelStats()
        css_s3ttmc(x, u, memoize="nonzero", stats=stats)
        for level in range(2, order):
            assert stats.level_flops[level] == c_css(level, order, rank, x.unnz)


class TestGlobalMemoizationOnlyHelps:
    def test_global_no_more_flops(self, rng):
        x = make_random_tensor(5, 8, 40, rng)
        u = rng.random((8, 3))
        s_global, s_local = KernelStats(), KernelStats()
        s3ttmc(x, u, memoize="global", stats=s_global)
        s3ttmc(x, u, memoize="nonzero", stats=s_local)
        assert s_global.kernel_flops <= s_local.kernel_flops

    def test_repeated_indices_cost_less(self, rng):
        """Non-zeros with repeated values have fewer sub-multisets."""
        distinct = make_random_tensor(4, 12, 10, rng, distinct=True)
        diag_idx = np.array([[i, i, i, i] for i in range(10)])
        from repro.formats import SparseSymmetricTensor

        diag = SparseSymmetricTensor(4, 12, diag_idx, np.ones(10))
        u = rng.random((12, 3))
        s_dist, s_diag = KernelStats(), KernelStats()
        s3ttmc(distinct, u, memoize="nonzero", stats=s_dist)
        s3ttmc(diag, u, memoize="nonzero", stats=s_diag)
        assert s_diag.kernel_flops < s_dist.kernel_flops


class TestModelProperties:
    def test_sp_never_exceeds_css(self):
        for order in range(3, 10):
            for rank in range(1, 8):
                assert total_sp(order, rank, 100) <= total_css(order, rank, 100)

    def test_table2_ordering_high_order(self):
        """For high order / large dim, HOQRI-SymProp is cheapest (Table II)."""
        costs = table2_complexities(dim=50_000, order=8, rank=10, unnz=50_000)
        assert costs["HOQRI-SymProp"] < costs["HOOI-SymProp"]
        assert costs["HOOI-SymProp"] < costs["HOOI-CSS"]
        assert costs["HOQRI-SymProp"] < costs["HOQRI"]

    def test_hoqri_svd_vs_qr_gap(self):
        """The SVD term dominates HOOI at large I (Fig. 7 rationale)."""
        from repro.perfmodel.complexity import qr_cost, svd_cost

        assert svd_cost(60_000, 8, 10) > 1000 * qr_cost(60_000, 10)


class TestKernelStatsAccounting:
    def test_intermediate_bytes_is_peak_not_sum(self):
        """Regression: levels are materialized one at a time, so the K
        footprint is the *largest* level, not the running sum."""
        stats = KernelStats()
        stats.add_level(2, nodes=100, edges=200, entry_size=6)   # 4.8 KB
        stats.add_level(3, nodes=50, edges=150, entry_size=56)   # 22.4 KB
        stats.add_level(4, nodes=10, edges=40, entry_size=126)   # 10.08 KB
        assert stats.intermediate_bytes == 50 * 56 * 8  # peak level only

    def test_intermediate_bytes_matches_merge_semantics(self):
        """add_level on one stats object keeps the largest level's bytes:
        the max over per-level stats objects, not their sum."""
        combined = KernelStats()
        parts = []
        for level, nodes, size in [(2, 30, 6), (3, 80, 20), (4, 5, 70)]:
            combined.add_level(level, nodes, 2 * nodes, size)
            part = KernelStats()
            part.add_level(level, nodes, 2 * nodes, size)
            parts.append(part)
        assert combined.intermediate_bytes == max(p.intermediate_bytes for p in parts)

    def test_kernel_peak_footprint_bounded_by_model(self, rng):
        """End-to-end: the recorded peak is one level's array, so it is no
        larger than the closed-form per-level bound."""
        from repro.symmetry.combinatorics import sym_storage_size

        x = make_random_tensor(5, 12, 30, rng)
        u = rng.random((12, 3))
        stats = KernelStats()
        s3ttmc(x, u, stats=stats)
        worst = max(
            stats.level_nodes[level] * sym_storage_size(level, 3) * 8
            for level in stats.level_nodes
        )
        assert stats.intermediate_bytes == worst
