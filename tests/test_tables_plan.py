"""Tests for the cached index tables and execution plans."""

import numpy as np
import pytest

from repro.core.plan import TTMcPlan, build_plan, get_plan
from repro.formats.ucoo import SparseSymmetricTensor
from repro.symmetry import tables as tables_mod
from repro.symmetry.combinatorics import sym_storage_size
from repro.symmetry.iou import enumerate_iou
from repro.symmetry.tables import get_tables
from tests.conftest import make_random_tensor


class TestIndexTables:
    def test_contents(self):
        tables = get_tables(3, 4)
        assert tables.size == sym_storage_size(3, 4)
        assert np.array_equal(tables.indices, enumerate_iou(3, 4))
        assert tables.multiplicity.sum() == 4**3

    def test_cache_identity(self):
        a = get_tables(4, 3)
        b = get_tables(4, 3)
        assert a is b

    def test_cache_info_and_clear(self):
        # The cache is keyed by (order, dim) and refills after a clear.
        tables_mod._CACHE.clear()
        tables = get_tables(2, 5)
        assert tables_mod._CACHE == {(2, 5): tables}
        assert tables.size == sym_storage_size(2, 5)

    def test_parent_loc_consistent_with_enumeration(self):
        tables = get_tables(4, 3)
        prev = enumerate_iou(3, 3)
        assert np.array_equal(prev[tables.parent_loc], tables.indices[:, :-1])

    def test_expansion_locs_cached(self):
        tables = get_tables(2, 3)
        assert tables.expansion_locs() is tables.expansion_locs()


class TestPlans:
    def test_plan_batches_cover_nonzeros(self, rng):
        x = make_random_tensor(3, 10, 50, rng)
        plan = build_plan(x.indices, nz_batch_size=12)
        spans = [(s, e) for s, e, _lat in plan.batches]
        assert spans[0][0] == 0
        assert spans[-1][1] == x.unnz
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert b1 == a2
        assert all(e - s <= 12 for s, e in spans)

    def test_plan_single_batch_default(self, rng):
        x = make_random_tensor(3, 10, 50, rng)
        plan = build_plan(x.indices)
        assert len(plan.batches) == 1

    def test_empty_plan(self):
        plan = build_plan(np.zeros((0, 3), dtype=np.int64))
        assert plan.batches == ()
        assert plan.total_edges == 0

    def test_get_plan_distinct_keys(self, rng):
        x = make_random_tensor(3, 10, 30, rng)
        a = get_plan(x, "global", None)
        b = get_plan(x, "nonzero", None)
        c = get_plan(x, "global", 8)
        assert a is not b and a is not c
        assert get_plan(x, "global", None) is a

    def test_plan_is_structural_only(self, rng):
        """Same pattern, different values: one plan serves both."""
        from repro.core import s3ttmc
        from repro.baselines.dense_ref import dense_s3ttmc_matrix

        x = make_random_tensor(4, 8, 30, rng)
        y = SparseSymmetricTensor(x.order, x.dim, x.indices, rng.random(x.unnz))
        plan = build_plan(x.indices)
        u = rng.random((8, 3))
        for t in (x, y):
            got = s3ttmc(t, u, plan=plan).to_full_unfolding()
            assert np.allclose(got, dense_s3ttmc_matrix(t, u), atol=1e-10)

    def test_plan_type(self, rng):
        x = make_random_tensor(3, 8, 20, rng)
        assert isinstance(get_plan(x), TTMcPlan)


class TestCLI:
    def test_list_runs(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "fig9" in out

    def test_unknown_experiment_rejected(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["not-an-experiment"])
