"""Regression tests for the four kernel-edge bugs fixed alongside repro.verify.

Each test fails on the pre-fix engine:

1. Budget pre-flight ordering — the level-table hoist allocated its
   gather tables *before* asking the budget, so a refused run had already
   materialized the bytes the budget existed to prevent.
2. ``out=`` dtype — a float32 / integer ``out`` passed shape validation
   and silently accumulated with precision loss (or dtype-cast errors
   deep in the scatter).
3. ``out_row_map`` coverage — an unmapped (-1) target row wrapped around
   to the *last local row* of the block, silently corrupting it.
4. Stale plan reuse — only ``plan.order`` was checked, so a plan built
   for one sparsity pattern could be replayed against another, producing
   garbage without any error.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.core.engine import lattice_ttmc
from repro.core.plan import build_plan, pattern_fingerprint
from repro.runtime import ExecContext
from repro.runtime.budget import MemoryBudget, MemoryLimitError
from repro.symmetry.combinatorics import sym_storage_size
from repro.verify.invariants import check_budget_preflight
from tests.conftest import make_random_tensor


@pytest.fixture
def small():
    rng = np.random.default_rng(11)
    x = make_random_tensor(3, 6, 20, rng)
    u = rng.standard_normal((6, 4))
    return x, u


def _cols(order, rank):
    return sym_storage_size(order - 1, rank)


class TestBudgetPreflight:
    def test_refused_hoist_is_never_materialized(self):
        # tracemalloc sees numpy's real allocations: across a refused
        # call, the traced peak must stay far below the gather-table
        # size. Pre-fix, the tables were allocated first and the peak
        # jumped by ~11.5 MB.
        result = check_budget_preflight()
        assert result.ok, result.detail

    def test_budget_drained_after_refusal(self):
        rng = np.random.default_rng(0)
        dim, rank = 40000, 8
        x = make_random_tensor(3, dim, 48, rng)
        u = rng.standard_normal((dim, rank))
        out = np.zeros((dim, _cols(3, rank)))
        # The plan is built inside the budget under test: its per-level
        # transients must drain too.
        budget = MemoryBudget(limit_bytes=4 * 2**20)
        with pytest.raises(MemoryLimitError):
            lattice_ttmc(
                x.indices, x.values, dim, u, out=out, block_bytes=1 << 25,
                ctx=ExecContext(budget=budget),
            )
        assert budget.in_use == 0, budget.allocations

    def test_traced_peak_small_during_refused_hoist(self):
        rng = np.random.default_rng(0)
        dim, rank = 40000, 8
        x = make_random_tensor(3, dim, 48, rng)
        u = rng.standard_normal((dim, rank))
        out = np.zeros((dim, _cols(3, rank)))
        hoist_bytes = (dim + 3 * 48) * _cols(3, rank) * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ctx = ExecContext(budget=MemoryBudget(limit_bytes=4 * 2**20))
            with pytest.raises(MemoryLimitError):
                lattice_ttmc(
                    x.indices, x.values, dim, u, out=out, block_bytes=1 << 25,
                    ctx=ctx,
                )
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < hoist_bytes // 2


class TestOutDtypeValidation:
    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.float16])
    def test_narrow_out_rejected(self, small, dtype):
        x, u = small
        out = np.zeros((6, _cols(3, 4)), dtype=dtype)
        with pytest.raises(ValueError, match="float64"):
            lattice_ttmc(x.indices, x.values, 6, u, out=out)

    def test_float64_out_accepted(self, small):
        x, u = small
        ref = lattice_ttmc(x.indices, x.values, 6, u)
        out = np.zeros((6, _cols(3, 4)))
        lattice_ttmc(x.indices, x.values, 6, u, out=out)
        np.testing.assert_array_equal(out, ref)


class TestOutRowMapCoverage:
    def test_unmapped_target_row_raises(self, small):
        x, u = small
        touched = np.unique(x.indices)
        assert touched.size >= 2
        # Map every touched row except the last — pre-fix the -1 wrapped
        # to the block's final local row and corrupted it silently.
        kept = touched[:-1]
        row_map = np.full(6, -1, dtype=np.int64)
        row_map[kept] = np.arange(kept.size)
        out = np.zeros((kept.size, _cols(3, 4)))
        with pytest.raises(ValueError, match="out_row_map"):
            lattice_ttmc(
                x.indices, x.values, 6, u, out=out, out_row_map=row_map
            )

    def test_covering_row_map_untouched_rows_unmapped_ok(self, small):
        x, u = small
        touched = np.unique(x.indices)
        row_map = np.full(6, -1, dtype=np.int64)
        row_map[touched] = np.arange(touched.size)
        out = np.zeros((touched.size, _cols(3, 4)))
        lattice_ttmc(x.indices, x.values, 6, u, out=out, out_row_map=row_map)
        ref = lattice_ttmc(x.indices, x.values, 6, u)
        np.testing.assert_array_equal(out, ref[touched])


class TestStalePlanDetection:
    def test_plan_from_other_pattern_rejected(self, small):
        x, u = small
        other = np.sort((x.indices + 1) % 6, axis=1)
        other = other[np.lexsort(other.T[::-1])]
        assert other.tobytes() != x.indices.tobytes()
        stale = build_plan(other)
        with pytest.raises(ValueError, match="stale|does not match"):
            lattice_ttmc(x.indices, x.values, 6, u, plan=stale)

    def test_plan_from_truncated_pattern_rejected(self, small):
        x, u = small
        stale = build_plan(x.indices[:-1])
        with pytest.raises(ValueError, match="stale|does not match"):
            lattice_ttmc(x.indices, x.values, 6, u, plan=stale)

    def test_matching_plan_accepted_and_bitwise(self, small):
        x, u = small
        plan = build_plan(x.indices)
        assert plan.unnz == x.indices.shape[0]
        assert plan.fingerprint == pattern_fingerprint(x.indices)
        got = lattice_ttmc(x.indices, x.values, 6, u, plan=plan)
        ref = lattice_ttmc(x.indices, x.values, 6, u)
        np.testing.assert_array_equal(got, ref)

    def test_legacy_unstamped_plan_still_accepted(self, small):
        # Plans pickled before the stamp existed deserialize with the
        # sentinel defaults; they must keep working (order check only).
        x, u = small
        legacy = dataclasses.replace(
            build_plan(x.indices), unnz=-1, fingerprint=-1
        )
        lattice_ttmc(x.indices, x.values, 6, u, plan=legacy)

    def test_wrong_order_plan_rejected(self, small):
        x, u = small
        rng = np.random.default_rng(1)
        other = make_random_tensor(4, 6, 10, rng)
        with pytest.raises(ValueError, match="order"):
            lattice_ttmc(x.indices, x.values, 6, u, plan=build_plan(other.indices))

    def test_fingerprint_distinguishes_permuted_values(self):
        a = np.array([[0, 1, 2], [1, 2, 3]], dtype=np.int64)
        b = np.array([[0, 1, 3], [1, 2, 2]], dtype=np.int64)
        assert pattern_fingerprint(a) != pattern_fingerprint(b)
        assert pattern_fingerprint(a) == pattern_fingerprint(a.copy())
