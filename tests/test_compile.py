"""Tests for the kernel compiler v2 (repro.core.compile).

The compiled kernels promise *bitwise* agreement with the generic
engine (same reduction order, every output row summed left to right in
the same top-edge order, node-aligned chunks) — so most assertions here
are ``array_equal``, not ``allclose``.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core import compile as compile_mod
from repro.core.compile import (
    CHUNK_BYTES,
    DEFAULT_CHUNK_EDGES,
    KERNEL_VERSION,
    KernelSpec,
    build_tables,
    compiled_kernel,
    generate_kernel_source,
    get_kernel,
)
from repro.core.engine import lattice_ttmc
from repro.core.lattice import build_lattice
from repro.core.plan import build_plan
from repro.core.s3ttmc import s3ttmc
from repro.core.stats import KernelStats
from repro.data import random_sparse_symmetric
from repro.decomp import hooi, hoqri
from repro.formats import SparseSymmetricTensor
from repro.obs.attrib import attribute
from repro.obs.export import summarize
from repro.obs.trace import TraceCollector
from repro.parallel.executor import parallel_s3ttmc
from repro.runtime.budget import MemoryBudget, MemoryLimitError
from repro.runtime.context import ExecContext
from repro.symmetry.combinatorics import sym_storage_size

from .conftest import make_random_tensor


def _run(tensor, factor, **kwargs):
    return lattice_ttmc(
        tensor.indices, tensor.values, tensor.dim, factor, **kwargs
    )


class TestBitwiseEquality:
    @pytest.mark.parametrize("order,dim,unnz", [(2, 8, 20), (3, 8, 25), (4, 7, 20), (5, 6, 12), (6, 5, 8)])
    @pytest.mark.parametrize("intermediate", ["compact", "full", "cp"])
    def test_matches_generic(self, order, dim, unnz, intermediate, rng):
        t = make_random_tensor(order, dim, unnz, rng)
        u = rng.standard_normal((dim, 4))
        ref = _run(t, u, intermediate=intermediate)
        got = _run(t, u, intermediate=intermediate, kernel="compiled")
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("memoize", ["global", "nonzero"])
    def test_memoize_scopes(self, memoize, rng):
        t = make_random_tensor(4, 7, 25, rng)
        u = rng.standard_normal((7, 3))
        ref = _run(t, u, memoize=memoize)
        got = _run(t, u, memoize=memoize, kernel="compiled")
        assert np.array_equal(got, ref)

    def test_s3ttmc_entry_point(self, small_tensor, rng):
        u = rng.standard_normal((small_tensor.dim, 5))
        ref = s3ttmc(small_tensor, u)
        got = s3ttmc(small_tensor, u, kernel="compiled")
        assert np.array_equal(got.data, ref.data)

    def test_chunk_size_invariance(self, rng):
        # Chunks never split a node and rows are folded sequentially, so
        # any chunk size must be bitwise-identical — not merely close.
        t = make_random_tensor(4, 8, 30, rng)
        u = rng.standard_normal((8, 4))
        base = _run(t, u, kernel="compiled", chunk_edges=DEFAULT_CHUNK_EDGES)
        for chunk in (16, 64, 1_000_000):
            got = _run(t, u, kernel="compiled", chunk_edges=chunk)
            assert np.array_equal(got, base), f"chunk_edges={chunk}"

    def test_nz_batching_allclose(self, rng):
        # Batching reorders the output accumulation (like the generic
        # engine) — allclose, and bitwise against the *generic* kernel
        # run at the same batch size.
        t = make_random_tensor(4, 7, 24, rng)
        u = rng.standard_normal((7, 3))
        got = _run(t, u, kernel="compiled", nz_batch_size=7)
        assert np.array_equal(got, _run(t, u, nz_batch_size=7))
        np.testing.assert_allclose(got, _run(t, u), rtol=1e-12, atol=1e-12)

    def test_empty_tensor(self, rng):
        t = make_random_tensor(3, 6, 4, rng)
        empty = type(t)(3, 6, t.indices[:0], t.values[:0])
        u = rng.standard_normal((6, 3))
        got = _run(empty, u, kernel="compiled")
        assert got.shape == (6, sym_storage_size(2, 3))
        assert not got.any()


class TestOutAndRowMap:
    def test_out_accumulates_bitwise(self, rng):
        t = make_random_tensor(4, 7, 20, rng)
        u = rng.standard_normal((7, 3))
        ref = _run(t, u)
        out = np.zeros_like(ref)
        _run(t, u, kernel="compiled", out=out)
        assert np.array_equal(out, ref)

    def test_row_map_identity_bitwise(self, rng):
        t = make_random_tensor(3, 8, 15, rng)
        u = rng.standard_normal((8, 4))
        ref = _run(t, u)
        out = np.zeros_like(ref)
        _run(
            t,
            u,
            kernel="compiled",
            out=out,
            out_row_map=np.arange(8, dtype=np.int64),
        )
        assert np.array_equal(out, ref)

    def test_unmapped_row_raises(self, rng):
        t = make_random_tensor(3, 6, 10, rng)
        u = rng.standard_normal((6, 3))
        row_map = np.full(6, -1, dtype=np.int64)
        out = np.zeros((1, sym_storage_size(2, 3)))
        with pytest.raises(ValueError, match="row"):
            _run(t, u, kernel="compiled", out=out, out_row_map=row_map)

    @pytest.mark.parametrize("kernel", ["generic", "compiled"])
    def test_row_map_past_out_raises(self, kernel, rng):
        # The compiled fold gathers out rows without bounds checks, so a
        # map pointing past out must be refused up front, as the generic
        # engine's indexing refuses it.
        t = make_random_tensor(3, 6, 10, rng)
        u = rng.standard_normal((6, 3))
        ctx = ExecContext(budget=MemoryBudget())
        out = np.zeros((2, sym_storage_size(2, 3)))
        with pytest.raises(IndexError):
            _run(t, u, kernel=kernel, out=out, out_row_map=np.full(6, 2), ctx=ctx)
        assert not out.any()
        assert ctx.budget.in_use == 0

    def test_invalid_kernel_name(self, rng):
        t = make_random_tensor(3, 6, 10, rng)
        u = rng.standard_normal((6, 3))
        with pytest.raises(ValueError, match="kernel"):
            _run(t, u, kernel="vectorized")


class TestCaching:
    def test_function_cache_identity_and_tags(self):
        compile_mod._FN_CACHE.clear()
        spec = KernelSpec(order=3, rank=4)
        fn = compiled_kernel(spec)
        assert compiled_kernel(spec) is fn
        assert fn.__kernel_spec__ == spec
        assert fn.__codegen_version__ == KERNEL_VERSION
        assert fn.__source__ == generate_kernel_source(spec)
        assert spec.function_name in fn.__source__
        assert list(compile_mod._FN_CACHE) == [spec]

    def test_function_cache_evicts_past_cap(self):
        compile_mod._FN_CACHE.clear()
        cap = compile_mod._FN_CACHE_CAP
        specs = [KernelSpec(order=2, rank=r) for r in range(1, cap + 2)]
        for spec in specs:
            compiled_kernel(spec)
        assert len(compile_mod._FN_CACHE) == cap
        assert specs[0] not in compile_mod._FN_CACHE  # oldest evicted
        assert specs[-1] in compile_mod._FN_CACHE
        compile_mod._FN_CACHE.clear()

    def test_distinct_specs_distinct_functions(self):
        a = compiled_kernel(KernelSpec(order=3, rank=4))
        b = compiled_kernel(KernelSpec(order=3, rank=5))
        assert a is not b

    def test_table_cache_hits_on_plan_stamp(self, rng):
        t = make_random_tensor(4, 7, 20, rng)
        ctx = ExecContext()
        plan = build_plan(t.indices, "global", None)
        k1 = get_kernel(plan, 3, "compact", None, ctx)
        k2 = get_kernel(plan, 3, "compact", None, ctx)
        assert k2.tables is k1.tables  # cached on ctx.plans, not rebuilt
        assert ctx.plans.compiled_hits == 1
        assert ctx.plans.compiled_misses == 1

    def test_table_cache_misses_on_changed_pattern(self, rng):
        ctx = ExecContext()
        t1 = make_random_tensor(4, 7, 20, rng)
        t2 = make_random_tensor(4, 7, 21, rng)
        k1 = get_kernel(build_plan(t1.indices, "global", None), 3, "compact", None, ctx)
        k2 = get_kernel(build_plan(t2.indices, "global", None), 3, "compact", None, ctx)
        assert k1.tables is not k2.tables
        assert ctx.plans.compiled_hits == 0

    def test_unstamped_plan_never_cached(self, rng):
        import dataclasses

        t = make_random_tensor(3, 6, 10, rng)
        ctx = ExecContext()
        plan = build_plan(t.indices, "global", None)
        legacy = dataclasses.replace(plan, unnz=-1, fingerprint=-1)
        get_kernel(legacy, 3, "compact", None, ctx)
        assert not ctx.plans._compiled


class TestBudget:
    def test_compiled_peak_below_generic(self, rng):
        # The fusion claim, measured: no (M_{l-1}, S_l) expanded
        # intermediate means a strictly lower accounting high-water mark
        # on a workload big enough that intermediates dominate the
        # compiled path's fixed-size chunk scratch buffers.
        t = make_random_tensor(4, 100, 2000, rng)
        u = rng.standard_normal((100, 8))
        peaks = {}
        for mode in ("generic", "compiled"):
            ctx = ExecContext(budget=MemoryBudget())
            _run(t, u, kernel=mode, ctx=ctx)
            ctx.budget.peak = ctx.budget.in_use
            _run(t, u, kernel=mode, ctx=ctx)
            peaks[mode] = ctx.budget.peak
        assert peaks["compiled"] < peaks["generic"]

    def test_budget_released_on_failure(self, rng):
        # The generated kernel releases held allocations even when it
        # raises (the unmapped-row contract) — the budget must balance.
        t = make_random_tensor(3, 6, 10, rng)
        u = rng.standard_normal((6, 3))
        ctx = ExecContext(budget=MemoryBudget())
        row_map = np.full(6, -1, dtype=np.int64)
        out = np.zeros((1, sym_storage_size(2, 3)))
        with pytest.raises(ValueError):
            _run(t, u, kernel="compiled", out=out, out_row_map=row_map, ctx=ctx)
        assert ctx.budget.in_use == 0


def _requests(collector, label):
    return [
        e.attrs["nbytes"]
        for e in collector.events
        if e.name == "budget.request" and e.attrs["label"] == label
    ]


class TestChunkBytes:
    def test_chunk_buffers_capped_in_bytes(self, rng):
        # Order 6, R 8: a 1024-edge chunk of the widest level would hold
        # 15.7 MB of buffers; capped in bytes, no level's request exceeds
        # CHUNK_BYTES (node degrees here stay far below the cap).
        t = make_random_tensor(6, 10, 200, rng)
        u = rng.standard_normal((10, 8))
        col = TraceCollector()
        got = _run(t, u, kernel="compiled", ctx=ExecContext(collector=col))
        assert np.array_equal(got, _run(t, u))
        chunks = _requests(col, "compiled chunk buffers")
        assert len(chunks) == 5  # levels 2..4, level 5's chunk and fold buffers
        assert max(chunks) <= CHUNK_BYTES

    def test_hub_row_is_accounted(self, rng):
        # Row 0 is in every non-zero, and each level-2 node (0, i) feeds
        # about dim top edges: a hub output row and hub nodes. The hub
        # row is folded through the accounted fold buffers, piece by
        # piece; each hub node's top edges are split over pieces.
        dim, rank, chunk = 24, 4, 16
        idx = np.array([(0, i, j) for i in range(1, dim) for j in range(i, dim)])
        t = SparseSymmetricTensor(3, dim, idx, rng.random(idx.shape[0]))
        u = rng.standard_normal((dim, rank))
        col = TraceCollector()
        ctx = ExecContext(budget=MemoryBudget(), collector=col)
        got = _run(t, u, kernel="compiled", chunk_edges=chunk, ctx=ctx)
        assert np.array_equal(got, _run(t, u))
        cols = sym_storage_size(2, rank)
        (tables,) = get_kernel(build_plan(t.indices), rank, "compact", chunk).tables
        st = tables.stream
        assert any(nn == 0 for _d, nn, *_rest in st.pieces)  # a split hub node
        assert (st.heads == 0).sum() > 1  # row 0 is a head in many pieces
        fold_bytes = (st.kn + st.hn + st.wn) * cols * 8
        assert fold_bytes in _requests(col, "compiled chunk buffers")
        assert st.wn <= 2 * chunk  # the hub never widens the fold buffer
        assert ctx.budget.peak >= dim * cols * 8 + fold_bytes  # Y + fold buffers
        assert ctx.budget.in_use == 0


class TestStreamedLevel:
    """Level N-1 is folded into Y chunk by chunk; K_{N-1} never exists."""

    def test_block_and_chunk_invariance(self):
        # Each output row is summed left to right in one order, so the
        # generic engine's top-level edge blocks and the compiled chunk
        # size change no bit.
        t = random_sparse_symmetric(4, 50, 3000, seed=3)
        u = np.random.default_rng(3).standard_normal((50, 4))
        ref = _run(t, u, kernel="compiled")
        for block in (256 * 2**20, 2**20, 2**16):
            assert np.array_equal(_run(t, u, block_bytes=block), ref), block
        for chunk in (1, 7, 16, 100, 1024, 100_000):
            got = _run(t, u, kernel="compiled", chunk_edges=chunk)
            assert np.array_equal(got, ref), chunk

    @staticmethod
    def _order5():
        # Small dim: lower levels share heavily, so K_4 dwarfs K_2 + K_3.
        t = random_sparse_symmetric(5, 30, 3000, seed=5)
        u = np.random.default_rng(5).standard_normal((30, 8))
        plan = build_plan(t.indices)
        lattice = plan.batches[0][2]
        k_bytes = {
            lv: lattice.levels[lv].n_nodes * sym_storage_size(lv, 8) * 8
            for lv in (2, 3, 4)
        }
        return t, u, plan, k_bytes

    def test_no_k_last_request_and_peak_bound(self):
        t, u, plan, k_bytes = self._order5()
        col = TraceCollector()
        ctx = ExecContext(budget=MemoryBudget(), collector=col)
        got = _run(t, u, kernel="compiled", plan=plan, ctx=ctx)
        assert np.array_equal(got, _run(t, u, plan=plan))
        labels = {
            e.attrs["label"] for e in col.events if e.name == "budget.request"
        }
        assert "K level 3" in labels and "K level 4" not in labels
        y_bytes = 30 * sym_storage_size(4, 8) * 8
        u_tables = 30 * 8 * (2 * sym_storage_size(2, 8) + sym_storage_size(3, 8) + sym_storage_size(4, 8))
        bound = k_bytes[3] + y_bytes + u_tables + 4 * CHUNK_BYTES
        assert bound < k_bytes[4]
        assert ctx.budget.peak <= bound
        assert ctx.budget.in_use == 0

    def test_real_allocations_below_k_last(self):
        import tracemalloc

        t, u, plan, k_bytes = self._order5()
        ctx = ExecContext(budget=MemoryBudget())
        _run(t, u, kernel="compiled", plan=plan, ctx=ctx)  # compile + tables
        ctx.budget.peak = ctx.budget.in_use
        tracemalloc.start()
        try:
            _run(t, u, kernel="compiled", plan=plan, ctx=ctx)
            _now, real_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert real_peak < k_bytes[4]
        # Everything that scales with S is requested before it is made:
        # what the budget never saw is pattern-sized index/scale arrays.
        n_slots = get_kernel(plan, 8, "compact", None, ctx).tables[0].stream.wnode.size
        assert real_peak <= ctx.budget.peak + 4 * 8 * n_slots + 2**16

    def test_limit_hit_mid_level_drains_budget(self):
        # Fail the fold-buffer request, after the streamed level already
        # holds its U table and chunk buffers: everything is given back.
        t, u, plan, _k = self._order5()
        col = TraceCollector()
        ctx = ExecContext(budget=MemoryBudget(), collector=col)
        _run(t, u, kernel="compiled", plan=plan, ctx=ctx)
        in_use, fold_at = 0, None
        for e in col.events:
            if e.name == "budget.request":
                in_use += e.attrs["nbytes"]
                if e.attrs["label"] == "compiled chunk buffers":
                    fold_at = in_use  # the last chunk request is the fold's
            elif e.name == "budget.release":
                in_use -= e.attrs["nbytes"]
        budget = MemoryBudget(limit_bytes=fold_at - 1)
        with pytest.raises(MemoryLimitError):
            _run(t, u, kernel="compiled", plan=plan, ctx=ExecContext(budget=budget))
        assert budget.in_use == 0

    @pytest.mark.parametrize("order", [2, 3, 5])
    @pytest.mark.parametrize("kernel", ["compiled", "generic"])
    def test_trace_flops_equal_stats(self, order, kernel, rng):
        # The fused span carries the fold's shape, so attribute() and
        # summarize count exactly KernelStats' flops.
        t = make_random_tensor(order, 8, 30, rng)
        u = rng.standard_normal((8, 4))
        col = TraceCollector()
        stats = KernelStats()
        _run(t, u, kernel=kernel, stats=stats, ctx=ExecContext(collector=col))
        report = attribute(col)
        assert sum(r.flops for r in report.levels) == stats.kernel_flops
        summary = summarize(col)
        assert sum(r.flops for r in summary.levels.values()) == stats.kernel_flops
        assert summary.levels[order - 1].scatter_edges == stats.scatter_flops // (
            2 * sym_storage_size(order - 1, 4)
        )


class TestProductionPaths:
    """Every production S3TTMc path runs the compiled engine."""

    @staticmethod
    def _engines(collector):
        spans = collector.find("lattice_ttmc")
        assert spans
        return {s.attrs["kernel"] for s in spans}

    def test_default_s3ttmc(self, small_tensor, rng):
        col = TraceCollector()
        u = rng.standard_normal((small_tensor.dim, 3))
        s3ttmc(small_tensor, u, ctx=ExecContext(collector=col))
        assert self._engines(col) == {"compiled"}

    def test_serial_hoqri(self, rng):
        t = make_random_tensor(4, 10, 40, rng)
        col = TraceCollector()
        hoqri(t, 3, max_iters=2, seed=0, ctx=ExecContext(collector=col))
        assert self._engines(col) == {"compiled"}

    def test_sharded_serial_backend(self, rng):
        t = make_random_tensor(4, 10, 40, rng)
        col = TraceCollector()
        u = rng.standard_normal((t.dim, 3))
        parallel_s3ttmc(t, u, 2, ctx=ExecContext(collector=col))
        assert col.metrics.counter("parallel.runs.serial").value == 1
        assert self._engines(col) == {"compiled"}

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the spy reaches the job process only through fork",
    )
    def test_served_s3ttmc_job(self, rng, monkeypatch, tmp_path):
        import asyncio
        import importlib

        from repro.parallel.child import START_METHOD_ENV_VAR
        from repro.serve import DecompositionService, JobSpec

        # The package re-exports the function under the module's name.
        s3ttmc_module = importlib.import_module("repro.core.s3ttmc")

        # Served jobs record no spans and run in the slot's job process,
        # so the spy (inherited by the forked job process) writes each
        # engine call's kernel to a file this process reads back.
        log = tmp_path / "engines.log"
        real = s3ttmc_module.lattice_ttmc

        def spy(*args, **kwargs):
            with log.open("a") as fh:
                fh.write(f"{kwargs['kernel']}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(s3ttmc_module, "lattice_ttmc", spy)
        monkeypatch.setenv(START_METHOD_ENV_VAR, "fork")
        t = make_random_tensor(4, 10, 40, rng)
        u = rng.standard_normal((10, 3))

        async def main():
            async with DecompositionService() as svc:
                job = await svc.submit(JobSpec(kind="s3ttmc", tensor=t, factor=u))
                await svc.result(job)
                return svc.stats()["pool"]["pids"]

        pids = asyncio.run(main())
        assert os.getpid() not in pids
        assert log.read_text().split() == ["compiled"]


class TestSpecAndTables:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(order=1, rank=4)
        with pytest.raises(ValueError):
            KernelSpec(order=3, rank=0)
        with pytest.raises(ValueError):
            KernelSpec(order=3, rank=4, layout="sparse")
        with pytest.raises(ValueError):
            KernelSpec(order=3, rank=4, chunk_edges=0)

    def test_function_name_encodes_spec(self):
        spec = KernelSpec(order=5, rank=7, layout="full", memoize="nonzero", chunk_edges=64)
        name = spec.function_name
        assert "o5" in name and "r7" in name and "full" in name
        assert "nonzero" in name and "c64" in name

    def test_tables_nbytes_positive(self, rng):
        t = make_random_tensor(3, 6, 10, rng)
        lattice = build_lattice(t.indices, memoize="global")
        tables = build_tables(lattice, 4, "compact")
        assert tables.nbytes > 0
        assert len(tables.levels) >= 1


def _left_to_right_r1(tensor, u):
    """S³TTMc at R = 1 in plain Python floats, in the reference order:
    every node's terms summed left to right over its edges, every output
    row left to right in :meth:`Lattice.top_edge_order`."""
    lattice = build_lattice(tensor.indices)
    col = u[:, 0].tolist()
    k = [col[v] for v in lattice.leaf_values.tolist()]
    for level in range(2, lattice.order):
        edges = lattice.levels[level]
        value, child = edges.value.tolist(), edges.child.tolist()
        cur = [0.0] * edges.n_nodes
        for g in edges.groups:
            for j, node in enumerate(g.nodes.tolist()):
                e0 = g.edge_offset + j * g.degree
                acc = col[value[e0]] * k[child[e0]]
                for e in range(e0 + 1, e0 + g.degree):
                    acc += col[value[e]] * k[child[e]]
                cur[node] = acc
        k = cur
    top = lattice.levels[lattice.order]
    value, child, node = top.value.tolist(), top.child.tolist(), top.node.tolist()
    values = tensor.values.tolist()
    out = [0.0] * tensor.dim
    for e in lattice.top_edge_order().tolist():
        out[value[e]] += k[child[e]] * values[node[e]]
    return np.array(out)[:, None]


class TestDegreeMajorChunks:
    """Chunk edges are stored degree-major; every degree sum is sequential."""

    @pytest.mark.parametrize("seed", range(3))
    def test_order9_rank1_sums_left_to_right(self, seed):
        # At R = 1 a node's d terms are single columns; order 9 has nodes
        # of degree >= 8, where a contiguous d-term NumPy sum goes pairwise.
        t = random_sparse_symmetric(9, 30, 50, seed=seed)
        u = np.random.default_rng(seed).standard_normal((30, 1))
        ref = _left_to_right_r1(t, u)
        assert max(g.degree for g in build_lattice(t.indices).levels[8].groups) >= 8
        for intermediate in ("compact", "cp"):
            assert np.array_equal(_run(t, u, intermediate=intermediate), ref)
            for chunk in (1, 7, 1024):
                got = _run(t, u, intermediate=intermediate, kernel="compiled", chunk_edges=chunk)
                assert np.array_equal(got, ref), (intermediate, chunk)
        for block in (2**10, 2**16):
            assert np.array_equal(_run(t, u, block_bytes=block), ref), block

    @pytest.mark.parametrize("chunk", [1, 7, 1024])
    @pytest.mark.parametrize("order,rank", [(3, 4), (5, 8), (9, 1)])
    def test_table_invariants(self, order, rank, chunk):
        t = random_sparse_symmetric(order, 30, 80, seed=1)
        lattice = build_lattice(t.indices)
        tables = build_tables(lattice, rank, "compact", chunk)
        streamed = [p[:3] for p in tables.stream.pieces if p[1]]
        assert [c[:3] for c in tables.levels[-1].chunks] == streamed
        for level, lt in zip(range(2, order), tables.levels):
            edges = lattice.levels[level]
            child = (
                lattice.leaf_values[edges.child]
                if level == 2
                else lattice.grouped_rank(level - 1)[edges.child]
            )
            # Grouped node i's node-major lattice edges start at ptr[i].
            degree = np.concatenate([np.full(g.n_nodes, g.degree) for g in edges.groups])
            ptr = np.concatenate([[0], np.cumsum(degree)])
            covered = np.zeros(edges.n_nodes, dtype=np.int64)
            for d, nn, e0, n0 in lt.chunks:
                covered[n0 : n0 + nn] += 1
                assert (degree[n0 : n0 + nn] == d).all() and e0 == ptr[n0]
                assert nn * d <= lt.rows
                sl = slice(e0, e0 + nn * d)
                # The chunk's table edges are its lattice edges, permuted...
                got = np.sort(lt.value[sl] * edges.n_edges + lt.child[sl])
                want = np.sort(edges.value[sl] * edges.n_edges + child[sl])
                assert np.array_equal(got, want)
                # ...so that row (k, j) of C.reshape(d, nn, S) is node
                # n0 + j's k-th edge.
                for table, lat in ((lt.value, edges.value), (lt.child, child)):
                    assert np.array_equal(table[sl].reshape(d, nn), lat[sl].reshape(nn, d).T)
            assert (covered == 1).all(), level
