"""Tests for level layouts and the index-iteration strategies (§III-C)."""

import numpy as np
import pytest

from repro.core.codegen import (
    STRATEGIES,
    codegen_step,
    generate_step_source,
    mapping_step,
    table_step,
)
from repro.core.layouts import compact_layout, full_layout, layout_for
from repro.symmetry.combinatorics import sym_storage_size
from repro.symmetry.tables import get_tables


class TestLayouts:
    def test_compact_matches_tables(self):
        layout = compact_layout(3, 4)
        tables = get_tables(3, 4)
        assert layout.size == tables.size
        assert np.array_equal(layout.parent_loc, tables.parent_loc)
        assert np.array_equal(layout.last_index, tables.last_index)

    def test_full_layout_arithmetic(self):
        layout = full_layout(2, 3)
        assert layout.size == 9
        assert layout.parent_loc.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert layout.last_index.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2]

    def test_dispatch(self):
        assert layout_for("compact", 2, 3).kind == "compact"
        assert layout_for("full", 2, 3).kind == "full"
        with pytest.raises(ValueError):
            layout_for("sparse", 2, 3)


class TestStepStrategies:
    """All three strategies compute the same Eq. 8 term."""

    @pytest.mark.parametrize("order,dim", [(2, 3), (3, 4), (4, 3), (5, 2), (6, 3)])
    def test_strategies_agree(self, order, dim, rng):
        u_row = rng.random(dim)
        k_prev = rng.random(sym_storage_size(order - 1, dim))
        results = {name: fn(u_row, k_prev, order, dim) for name, fn in STRATEGIES.items()}
        base = results["table"]
        for name, res in results.items():
            assert np.allclose(res, base), name

    def test_against_explicit_enumeration(self, rng):
        """out[lin(j)] == u_row[j_last] * k_prev[lin(j[:-1])]."""
        order, dim = 3, 3
        tables = get_tables(order, dim)
        u_row = rng.random(dim)
        k_prev = rng.random(sym_storage_size(order - 1, dim))
        out = codegen_step(u_row, k_prev, order, dim)
        from repro.symmetry.iou import rank_iou_array

        for s, idx in enumerate(tables.indices):
            parent = rank_iou_array(idx[None, :-1], dim)[0]
            assert out[s] == pytest.approx(u_row[idx[-1]] * k_prev[parent])

    def test_source_structure(self):
        src = generate_step_source(4)
        assert src.count("for ") == 4
        assert "loc_o" in src and "loc_p" in src
        compile(src, "<test>", "exec")  # syntactically valid

    def test_source_rejects_order_one(self):
        with pytest.raises(ValueError):
            generate_step_source(1)

    def test_codegen_cache_reuse(self):
        from repro.core import codegen

        codegen_step(np.ones(2), np.ones(2), 2, 2)
        fn1 = codegen._compiled_step(2)
        codegen_step(np.ones(2), np.ones(2), 2, 2)
        assert codegen._compiled_step(2) is fn1

    def test_codegen_cache_is_bounded_lru(self, monkeypatch):
        # CPython rejects > 20 statically nested blocks, so real orders
        # can't overflow the default cap of 32 — shrink the cap instead.
        from repro.core import codegen
        from repro.core.codegen import _compiled_step

        cap = 4
        monkeypatch.setattr(codegen, "_CACHE_CAP", cap)
        codegen._COMPILED.clear()
        # Fill past the cap: oldest orders must be evicted, newest kept.
        for order in range(2, 2 + cap + 3):
            _compiled_step(order)
        orders = list(codegen._COMPILED)
        assert len(orders) == cap
        assert 2 not in orders
        assert 2 + cap + 2 in orders
        # A hit refreshes recency: touch the oldest survivor, add one
        # more order, and the survivor must still be cached.
        oldest = orders[0]
        _compiled_step(oldest)
        _compiled_step(2 + cap + 3)
        assert oldest in codegen._COMPILED
        codegen._COMPILED.clear()

    def test_codegen_callables_version_tagged(self):
        from repro.core.codegen import CODEGEN_VERSION, _compiled_step

        assert _compiled_step(3).__codegen_version__ == CODEGEN_VERSION

    def test_mapping_step_high_order(self, rng):
        order, dim = 7, 2
        u_row = rng.random(dim)
        k_prev = rng.random(sym_storage_size(order - 1, dim))
        assert np.allclose(
            mapping_step(u_row, k_prev, order, dim),
            table_step(u_row, k_prev, order, dim),
        )
