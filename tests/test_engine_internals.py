"""Targeted tests for the evaluation engine's internal code paths."""

import numpy as np
import pytest

from repro.baselines.css_ttmc import css_s3ttmc
from repro.baselines.dense_ref import dense_s3ttmc_matrix
from repro.core import s3ttmc
from repro.core._segment import scatter_add_rows, segment_sum_by_ptr
from repro.core.engine import lattice_ttmc
from repro.formats import PartiallySymmetricTensor
from tests.conftest import make_random_tensor


class TestSegmentHelpers:
    def test_segment_sum_basic(self):
        data = np.arange(12, dtype=float).reshape(6, 2)
        ptr = np.array([0, 2, 5, 6])
        out = segment_sum_by_ptr(data, ptr)
        assert np.allclose(out[0], data[0:2].sum(axis=0))
        assert np.allclose(out[1], data[2:5].sum(axis=0))
        assert np.allclose(out[2], data[5:6].sum(axis=0))

    def test_segment_sum_empty_segment(self):
        data = np.ones((3, 2))
        ptr = np.array([0, 1, 1, 3])
        out = segment_sum_by_ptr(data, ptr)
        assert np.allclose(out[0], [1, 1])
        assert np.allclose(out[1], [0, 0])
        assert np.allclose(out[2], [2, 2])

    def test_segment_sum_no_segments(self):
        out = segment_sum_by_ptr(np.ones((0, 3)), np.array([0]))
        assert out.shape == (0, 3)

    def test_scatter_add_duplicates(self):
        out = np.zeros((4, 2))
        rows = np.array([1, 1, 3, 0, 1])
        contrib = np.arange(10, dtype=float).reshape(5, 2)
        scatter_add_rows(out, rows, contrib)
        expected = np.zeros((4, 2))
        for r, c in zip(rows, contrib):
            expected[r] += c
        assert np.allclose(out, expected)

    def test_scatter_add_empty(self):
        out = np.ones((2, 2))
        scatter_add_rows(out, np.zeros(0, dtype=int), np.zeros((0, 2)))
        assert np.allclose(out, 1.0)

    def test_scatter_accumulates_into_existing(self):
        out = np.ones((3, 1))
        scatter_add_rows(out, np.array([2]), np.array([[5.0]]))
        assert out[2, 0] == 6.0


class TestEngineChunking:
    @pytest.mark.parametrize("block_bytes", [64, 1024, 65536])
    def test_tiny_blocks_exact(self, block_bytes, rng):
        """The generic engine's blocking at absurdly small block sizes
        changes no bit and stays exact."""
        x = make_random_tensor(5, 8, 40, rng)
        u = rng.random((8, 3))
        args = (x.indices, x.values, x.dim, u)
        got = lattice_ttmc(*args, kernel="generic", block_bytes=block_bytes)
        assert np.array_equal(got, lattice_ttmc(*args, kernel="generic"))
        y = PartiallySymmetricTensor(x.dim, x.order - 1, u.shape[1], got)
        assert np.allclose(y.to_full_unfolding(), dense_s3ttmc_matrix(x, u), atol=1e-10)

    def test_full_layout_hoist_fallback(self, rng):
        """Tiny block_bytes forces the non-hoisted 2-D gather path for the
        full layout (hoist tables would exceed 2x block budget)."""
        x = make_random_tensor(4, 10, 30, rng)
        u = rng.random((10, 4))
        ref = dense_s3ttmc_matrix(x, u)
        got = css_s3ttmc(x, u, block_bytes=2048)
        assert np.allclose(got, ref, atol=1e-10)

    def test_out_accumulation(self, rng):
        """Passing `out=` accumulates into the given buffer."""
        x = make_random_tensor(3, 6, 15, rng)
        u = rng.random((6, 2))
        y1 = s3ttmc(x, u).unfolding
        out = y1.copy()
        lattice_ttmc(x.indices, x.values, x.dim, u, out=out)
        assert np.allclose(out, 2 * y1)

    def test_out_shape_validation(self, rng):
        x = make_random_tensor(3, 6, 15, rng)
        u = rng.random((6, 2))
        with pytest.raises(ValueError):
            lattice_ttmc(x.indices, x.values, x.dim, u, out=np.zeros((6, 5)))

    def test_plan_order_mismatch(self, rng):
        from repro.core.plan import build_plan

        x3 = make_random_tensor(3, 6, 10, rng)
        x4 = make_random_tensor(4, 6, 10, rng)
        plan3 = build_plan(x3.indices)
        u = rng.random((6, 2))
        with pytest.raises(ValueError):
            lattice_ttmc(x4.indices, x4.values, 6, u, plan=plan3)

    def test_unknown_layout(self, rng):
        x = make_random_tensor(3, 6, 10, rng)
        with pytest.raises(ValueError):
            lattice_ttmc(x.indices, x.values, 6, rng.random((6, 2)), intermediate="banded")


class TestOutRowMap:
    def test_compact_row_block_matches_full(self, rng):
        """out_row_map writes each global row into its local slot."""
        from repro.parallel import chunk_row_block

        x = make_random_tensor(4, 12, 50, rng)
        u = rng.random((12, 3))
        start, stop = 5, min(30, x.unnz)
        full = lattice_ttmc(x.indices[start:stop], x.values[start:stop], x.dim, u)
        rows, row_map = chunk_row_block(x.indices[start:stop], x.dim)
        out = np.zeros((rows.shape[0], full.shape[1]))
        lattice_ttmc(
            x.indices[start:stop],
            x.values[start:stop],
            x.dim,
            u,
            out=out,
            out_row_map=row_map,
        )
        assert np.allclose(out, full[rows], atol=1e-12)
        untouched = np.setdiff1d(np.arange(x.dim), rows)
        assert np.allclose(full[untouched], 0.0)

    def test_row_map_requires_out(self, rng):
        x = make_random_tensor(3, 6, 15, rng)
        u = rng.random((6, 2))
        row_map = np.arange(6, dtype=np.int64)
        with pytest.raises(ValueError):
            lattice_ttmc(x.indices, x.values, x.dim, u, out_row_map=row_map)

    def test_row_map_shape_validation(self, rng):
        x = make_random_tensor(3, 6, 15, rng)
        u = rng.random((6, 2))
        out = np.zeros((6, 3))
        with pytest.raises(ValueError):
            lattice_ttmc(
                x.indices,
                x.values,
                x.dim,
                u,
                out=out,
                out_row_map=np.arange(4, dtype=np.int64),
            )


class TestBudgetLifecycle:
    def test_in_use_returns_to_baseline(self, rng):
        """The kernel releases every byte it requested — including the Y it
        returns (release-on-handoff: ownership transfers to the caller at
        return, so repeated calls must not drift the accounting)."""
        from repro.runtime.budget import MemoryBudget

        x = make_random_tensor(4, 10, 40, rng)
        u = rng.random((10, 3))
        with MemoryBudget() as budget:
            s3ttmc(x, u)
            # Lattice structure bytes stay (cached plan); all transient
            # K-levels, gather tables and the handed-off Y are released.
            leftovers = {
                k: v
                for k, v in budget.allocations.items()
                if k.startswith("K level") or "gather" in k or k.startswith("Y (")
            }
            assert leftovers == {}, leftovers
            baseline = budget.in_use
            for _ in range(3):
                s3ttmc(x, u)
            assert budget.in_use == baseline
