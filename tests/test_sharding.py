"""Owned-shard execution: workers own tensor shards, not just nz ranges.

Covers the whole sharding stack: the sharder and its invariants, the
deterministic hierarchical merge (its exchange-event contract with
``merge_schedule`` and its budget accounting), owned shards on every
backend (bitwise across backends, allclose vs the canonical serial
kernel), the ``parallel.shard_bytes`` memory acceptance bound, shard
re-ingest after a worker crash, context/checkpoint plumbing — including
the removed ``broadcast``/``tree`` options failing loudly — and the
distributed simulator's plan-vs-trace agreement.
"""

import numpy as np
import pytest

from repro.core import s3ttmc
from repro.decomp import hooi, hoqri
from repro.obs.trace import TraceCollector
from repro.parallel import (
    ParallelRunReport,
    build_shards,
    exchange_from_trace,
    hierarchical_merge,
    make_backend,
    merge_schedule,
    parallel_s3ttmc,
    partition_ranges,
    plan_sharded_exchange,
    shard_resident_bytes,
    simulate_sharded_time,
)
from repro.perfmodel import worker_footprint
from repro.runtime.budget import MemoryBudget, MemoryLimitError
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.runtime.context import ExecContext
from repro.runtime.faults import FaultInjector, FaultSpec
from repro.symmetry.combinatorics import sym_storage_size
from tests.conftest import make_random_tensor


@pytest.fixture
def workload(rng):
    tensor = make_random_tensor(4, 24, 200, rng)
    factor = rng.standard_normal((24, 4))
    return tensor, factor


def _owned(tensor, factor, backend, n_workers=4, **kwargs):
    report = kwargs.pop("report", None) or ParallelRunReport()
    data = parallel_s3ttmc(
        tensor,
        factor,
        n_workers,
        backend=backend,
        report=report,
        **kwargs,
    ).data
    return data, report


def _whole_tensor_bytes(tensor):
    return tensor.unnz * (tensor.order * 8 + 8)


class TestBuildShards:
    def test_shards_cover_disjointly(self, workload):
        tensor, factor = workload
        shards = build_shards(tensor, 4, factor.shape[1])
        assert shards[0].start == 0
        assert shards[-1].stop == tensor.unnz
        for left, right in zip(shards, shards[1:]):
            assert left.stop == right.start
        assert [s.shard_id for s in shards] == list(range(len(shards)))

    def test_shards_match_executor_partition(self, workload):
        # A shard's nz slice must equal the executor chunk for the same
        # partition — that identity is what makes per-shard partials
        # bitwise-reproducible across backends.
        tensor, factor = workload
        ranges = partition_ranges(tensor, factor.shape[1], 4)
        shards = build_shards(tensor, 4, factor.shape[1])
        assert [(s.start, s.stop) for s in shards] == list(ranges)

    def test_shard_views_alias_parent(self, workload):
        tensor, factor = workload
        shard = build_shards(tensor, 4, factor.shape[1])[0]
        assert shard.indices.base is not None
        assert np.shares_memory(shard.indices, tensor.indices)
        assert np.shares_memory(shard.values, tensor.values)

    def test_row_block_structure(self, workload):
        tensor, factor = workload
        for shard in build_shards(tensor, 4, factor.shape[1]):
            assert np.array_equal(shard.rows, np.unique(shard.indices))
            # row_map inverts rows, -1 elsewhere
            assert np.array_equal(shard.row_map[shard.rows], np.arange(shard.n_rows))
            untouched = np.setdiff1d(np.arange(tensor.dim), shard.rows)
            assert np.all(shard.row_map[untouched] == -1)

    def test_costs_positive_and_balanced(self, workload):
        tensor, factor = workload
        shards = build_shards(tensor, 4, factor.shape[1])
        costs = [s.cost for s in shards]
        assert all(c > 0 for c in costs)
        assert max(costs) <= 2.5 * min(costs)

    def test_resident_bytes_owned_vs_broadcast(self, workload):
        # Each worker holds only its widest shard; the broadcast layout
        # (whole tensor per worker) is gone and asking for it fails.
        tensor, factor = workload
        ranges = partition_ranges(tensor, factor.shape[1], 4)
        owned = shard_resident_bytes(tensor.unnz, tensor.order, ranges)
        per_nz = tensor.order * 8 + 8
        assert owned == max(b - a for a, b in ranges) * per_nz
        assert owned <= _whole_tensor_bytes(tensor) / 2
        assert owned == shard_resident_bytes(
            tensor.unnz, tensor.order, ranges, sharding="owned"
        )
        with pytest.raises(ValueError, match="broadcast"):
            shard_resident_bytes(
                tensor.unnz, tensor.order, ranges, sharding="broadcast"
            )


class TestHierarchicalMerge:
    def test_matches_flat_sum(self, rng):
        dim, cols = 30, 6
        partials = []
        expected = np.zeros((dim, cols))
        for _ in range(5):
            rows = np.unique(rng.integers(0, dim, size=12))
            block = rng.standard_normal((rows.shape[0], cols))
            partials.append((rows, block))
            expected[rows] += block
        merged = hierarchical_merge(partials, dim, cols)
        assert np.allclose(merged, expected, atol=1e-12)

    def test_deterministic(self, rng):
        dim, cols = 20, 4
        partials = [
            (np.unique(rng.integers(0, dim, size=8)), None) for _ in range(4)
        ]
        partials = [
            (rows, np.arange(rows.shape[0] * cols, dtype=np.float64).reshape(-1, cols))
            for rows, _ in partials
        ]
        a = hierarchical_merge(partials, dim, cols)
        b = hierarchical_merge(partials, dim, cols)
        assert np.array_equal(a, b)

    def test_single_partial_and_empty(self):
        rows = np.array([1, 3])
        block = np.array([[1.0], [2.0]])
        out = hierarchical_merge([(rows, block)], 5, 1)
        assert np.array_equal(out[:, 0], [0.0, 1.0, 0.0, 2.0, 0.0])
        assert np.array_equal(hierarchical_merge([], 4, 2), np.zeros((4, 2)))

    def test_budget_holds_blocks_until_merged_away(self):
        # 4 overlapping 40-row shards, 50 cols: round 0 builds two 60-row
        # unions that stay alive while round 1 builds the 100-row union,
        # so 220 rows of merge blocks are live at once.
        dim, cols = 100, 50
        partials = [
            (np.arange(20 * k, 20 * k + 40), np.ones((40, cols))) for k in range(4)
        ]
        ctx = ExecContext(budget=MemoryBudget())
        hierarchical_merge(partials, dim, cols, ctx=ctx)
        assert ctx.budget.peak == (60 + 60 + 100) * cols * 8
        assert ctx.budget.in_use == 0
        # Two shards: one union, held until the final scatter.
        two = ExecContext(budget=MemoryBudget())
        hierarchical_merge(partials[:2], dim, cols, ctx=two)
        assert two.budget.peak == 60 * cols * 8
        assert two.budget.in_use == 0

    def test_budget_drained_when_a_merge_is_refused(self):
        dim, cols = 100, 50
        partials = [
            (np.arange(20 * k, 20 * k + 40), np.ones((40, cols))) for k in range(4)
        ]
        # Room for both round-0 unions, not for the round-1 union on top.
        ctx = ExecContext(budget=MemoryBudget(limit_bytes=(60 + 60) * cols * 8))
        with pytest.raises(MemoryLimitError):
            hierarchical_merge(partials, dim, cols, ctx=ctx)
        assert ctx.budget.in_use == 0

    def test_emitted_exchanges_match_schedule(self, rng):
        dim, cols = 40, 3
        row_sets = [np.unique(rng.integers(0, dim, size=15)) for _ in range(5)]
        partials = [
            (rows, rng.standard_normal((rows.shape[0], cols))) for rows in row_sets
        ]
        collector = TraceCollector()
        ctx = ExecContext(collector=collector)
        hierarchical_merge(partials, dim, cols, ctx=ctx)
        assert exchange_from_trace(collector) == merge_schedule(row_sets, cols)

    def test_schedule_rounds_and_bytes(self):
        row_sets = [np.arange(10), np.arange(5), np.arange(7), np.arange(3)]
        schedule = merge_schedule(row_sets, cols=2)
        # 4 shards -> 2 rounds: (0,1), (2,3), then the two survivors.
        assert [e["round"] for e in schedule] == [0, 0, 1]
        assert schedule[0]["rows"] == 5  # right operand ships
        assert all(e["bytes"] == e["rows"] * (2 * 8 + 8) for e in schedule)


class TestOwnedShardingBackends:
    def test_serial_owned_allclose_canonical(self, workload):
        tensor, factor = workload
        canonical = s3ttmc(tensor, factor).data
        data, report = _owned(tensor, factor, "serial")
        assert np.allclose(data, canonical, atol=1e-10)
        assert report.reduce_seconds > 0

    def test_process_bitwise_matches_serial_owned(self, workload):
        tensor, factor = workload
        base, _ = _owned(tensor, factor, "serial")
        data, report = _owned(tensor, factor, "process")
        assert np.array_equal(data, base)
        assert report.backend == "process"

    def test_compiled_kernel_owned(self, workload):
        tensor, factor = workload
        base, _ = _owned(tensor, factor, "serial", kernel="compiled")
        process, _ = _owned(tensor, factor, "process", kernel="compiled")
        assert np.array_equal(process, base)
        canonical = s3ttmc(tensor, factor).data
        assert np.allclose(base, canonical, atol=1e-10)

    def test_owned_requires_blocked_reduction(self, workload):
        # Owned shards always merge compact row-blocks: the reduction and
        # sharding keywords are gone, and passing either fails loudly.
        tensor, factor = workload
        for kwargs in (
            {"reduction": "blocked"},
            {"reduction": "tree"},
            {"sharding": "owned"},
            {"sharding": "broadcast"},
        ):
            (name,) = kwargs
            with pytest.raises(TypeError, match=name):
                parallel_s3ttmc(tensor, factor, 4, backend="serial", **kwargs)

    def test_default_is_owned(self, workload):
        # With one distribution left, a default run is the owned run:
        # shard-sized resident bytes, one merge per extra shard, bitwise
        # equal to an explicit ExecContext(sharding="owned").
        tensor, factor = workload
        collector = TraceCollector()
        data, _ = _owned(tensor, factor, "serial", ctx=ExecContext(collector=collector))
        explicit, _ = _owned(
            tensor, factor, "serial", ctx=ExecContext(sharding="owned")
        )
        assert np.array_equal(data, explicit)
        ranges = partition_ranges(tensor, factor.shape[1], 4)
        assert collector.metrics.gauge("parallel.shard_bytes").value == (
            shard_resident_bytes(tensor.unnz, tensor.order, ranges)
        )
        assert len(exchange_from_trace(collector)) == len(ranges) - 1

    def test_mode_switch_on_live_process_backend(self, workload, rng):
        # One backend instance serves generic and compiled kernel modes
        # and different tensors interleaved: shard segments are torn down
        # and re-shipped cleanly, worker caches never serve a stale shard.
        tensor, factor = workload
        other = make_random_tensor(4, 24, 120, rng)
        base, _ = _owned(tensor, factor, "serial")
        base_c, _ = _owned(tensor, factor, "serial", kernel="compiled")
        other_base, _ = _owned(other, factor, "serial")
        with make_backend("process", 4) as backend:
            first, _ = _owned(tensor, factor, backend)
            compiled, _ = _owned(tensor, factor, backend, kernel="compiled")
            second, _ = _owned(other, factor, backend)
            third, _ = _owned(tensor, factor, backend)
        assert np.array_equal(first, base)
        assert np.array_equal(compiled, base_c)
        assert np.array_equal(second, other_base)
        assert np.array_equal(third, base)

    def test_more_shards_than_process_workers_rejected(self, workload):
        tensor, factor = workload
        with make_backend("process", 2) as backend:
            with pytest.raises(ValueError, match="process workers"):
                parallel_s3ttmc(tensor, factor, 4, backend=backend)


class TestMemoryAcceptance:
    def test_owned_gauge_at_most_half_of_broadcast(self, workload):
        # The acceptance criterion: order-4 workload, >= 4 process
        # workers, resident tensor bytes per worker <= 0.5x the whole
        # tensor (what a broadcast copy would hold).
        tensor, factor = workload
        collector = TraceCollector()
        ctx = ExecContext(collector=collector)
        parallel_s3ttmc(tensor, factor, 4, backend="process", ctx=ctx)
        gauge = collector.metrics.gauge("parallel.shard_bytes").value
        assert gauge <= 0.5 * _whole_tensor_bytes(tensor)

    def test_worker_footprint_model_agrees(self, workload):
        tensor, factor = workload
        rank = factor.shape[1]
        owned = worker_footprint(
            tensor.dim, tensor.order, rank, tensor.unnz, n_workers=4
        )
        whole = _whole_tensor_bytes(tensor)
        assert owned.tensor <= 0.5 * whole
        # One worker owns the whole tensor.
        single = worker_footprint(
            tensor.dim, tensor.order, rank, tensor.unnz, n_workers=1
        )
        assert single.tensor == whole
        assert owned.total < single.total
        # The model's owned tensor bound must dominate the real widest shard.
        ranges = partition_ranges(tensor, rank, 4)
        real = shard_resident_bytes(tensor.unnz, tensor.order, ranges)
        per_nz = tensor.order * 8 + 8
        assert owned.tensor >= (tensor.unnz // 4) * per_nz
        assert real <= whole

    def test_worker_footprint_validation(self):
        with pytest.raises(ValueError):
            worker_footprint(10, 3, 2, 50, n_workers=0)
        with pytest.raises(TypeError, match="sharding"):
            worker_footprint(10, 3, 2, 50, n_workers=2, sharding="owned")


class TestShardLossRecovery:
    def test_crash_recovers_via_reingest(self, workload):
        tensor, factor = workload
        base, _ = _owned(tensor, factor, "serial")
        injector = FaultInjector(
            [FaultSpec(site="chunk", kind="crash", match={"slot": 1})], seed=0
        )
        collector = TraceCollector()
        ctx = ExecContext(collector=collector, faults=injector)
        report = ParallelRunReport()
        data, report = _owned(tensor, factor, "process", ctx=ctx, report=report)
        assert injector.n_fired == 1
        assert report.respawns >= 1
        assert report.shard_reingests >= 1
        assert report.fallbacks == 0  # recovered, not degraded
        assert np.array_equal(data, base)
        assert collector.metrics.counter("parallel.shard_reingests").value >= 1

    def test_reingest_counter_zero_on_clean_run(self, workload):
        tensor, factor = workload
        _data, report = _owned(tensor, factor, "process")
        assert report.shard_reingests == 0
        assert report.respawns == 0


class TestContextPlumbing:
    def test_context_carries_sharding(self, workload):
        tensor, factor = workload
        ctx = ExecContext(sharding="owned")
        base, _ = _owned(tensor, factor, "serial")
        report = ParallelRunReport()
        data = parallel_s3ttmc(tensor, factor, 4, report=report, ctx=ctx).data
        ctx.close()
        assert report.backend == "serial"
        assert np.array_equal(data, base)

    def test_validate_rejects_bad_sharding(self):
        for bad in ("bogus", "broadcast"):
            with pytest.raises(ValueError, match="broadcast"):
                ExecContext(sharding=bad)

    def test_derive_rejects_sharding(self):
        base = ExecContext(execution="process", n_workers=2)
        for kwargs in ({"sharding": "owned"}, {"reduction": "blocked"}):
            (name,) = kwargs
            with pytest.raises(TypeError, match=name):
                base.derive(**kwargs)


class TestDecompositionWiring:
    def test_hooi_owned_matches_serial(self, workload):
        tensor, _ = workload
        serial = hooi(tensor, 3, max_iters=3, seed=7)
        with ExecContext(execution="process", n_workers=3) as ctx:
            owned = hooi(tensor, 3, max_iters=3, seed=7, ctx=ctx)
        assert np.allclose(owned.factor, serial.factor, atol=1e-8)

    def test_hoqri_owned_matches_serial(self, workload):
        tensor, _ = workload
        serial = hoqri(tensor, 3, max_iters=3, seed=7)
        with ExecContext(execution="process", n_workers=3) as ctx:
            owned = hoqri(tensor, 3, max_iters=3, seed=7, ctx=ctx)
        assert np.allclose(owned.factor, serial.factor, atol=1e-8)

    def test_sharding_conflicts_with_explicit_ctx(self, workload):
        # The drivers' sharding keyword is gone, with or without a ctx.
        tensor, _ = workload
        ctx = ExecContext(execution="process", n_workers=2)
        with pytest.raises(TypeError, match="sharding"):
            hooi(tensor, 3, max_iters=1, ctx=ctx, sharding="owned")
        ctx.close()
        with pytest.raises(TypeError, match="sharding"):
            hoqri(tensor, 3, max_iters=1, sharding="owned")

    def test_checkpoint_records_shard_map(self, workload, tmp_path):
        tensor, _ = workload
        with ExecContext(execution="process", n_workers=3) as ctx:
            hooi(tensor, 3, max_iters=2, seed=7, ctx=ctx, checkpoint_dir=tmp_path)
        state = load_checkpoint(tmp_path)
        assert state.config["sharding"] == "owned"
        ranges = state.config["shard_ranges"]
        assert ranges[0][0] == 0 and ranges[-1][1] == tensor.unnz
        # Resume under the same layout continues; a different layout is
        # rejected (the shard map is part of the run identity).
        with ExecContext(execution="process", n_workers=3) as ctx:
            hooi(
                tensor, 3, max_iters=4, seed=7, ctx=ctx,
                checkpoint_dir=tmp_path, resume=True,
            )
        with ExecContext(execution="process", n_workers=2) as ctx:
            with pytest.raises(ValueError, match="shard_ranges"):
                hooi(
                    tensor, 3, max_iters=4, seed=7, ctx=ctx,
                    checkpoint_dir=tmp_path, resume=True,
                )

    def test_broadcast_checkpoint_has_no_shard_map(self, workload, tmp_path):
        # A parallel checkpoint written by a broadcast run carries no
        # shard map; resuming it must fail loudly on "sharding" rather
        # than continue under a different summation order.
        tensor, _ = workload
        with ExecContext(execution="process", n_workers=3) as ctx:
            hooi(tensor, 3, max_iters=2, seed=7, ctx=ctx, checkpoint_dir=tmp_path)
        state = load_checkpoint(tmp_path)
        del state.config["sharding"]
        del state.config["shard_ranges"]
        save_checkpoint(tmp_path, state)
        with ExecContext(execution="process", n_workers=3) as ctx:
            with pytest.raises(ValueError, match="sharding"):
                hooi(
                    tensor, 3, max_iters=4, seed=7, ctx=ctx,
                    checkpoint_dir=tmp_path, resume=True,
                )


class TestShardedExchangeModel:
    def test_plan_matches_trace(self, workload):
        tensor, factor = workload
        collector = TraceCollector()
        ctx = ExecContext(collector=collector)
        parallel_s3ttmc(tensor, factor, 4, backend="serial", ctx=ctx)
        plan = plan_sharded_exchange(tensor, 4, factor.shape[1], ctx=ctx)
        assert exchange_from_trace(collector) == plan.exchanges

    def test_plan_shape(self, workload):
        tensor, factor = workload
        rank = factor.shape[1]
        plan = plan_sharded_exchange(tensor, 4, rank)
        assert plan.n_shards == 4
        assert plan.cols == sym_storage_size(tensor.order - 1, rank)
        assert plan.n_rounds == 2  # 4 shards -> pairwise tree of depth 2
        assert len(plan.exchanges) == 3
        assert plan.total_exchange_bytes == sum(e["bytes"] for e in plan.exchanges)
        assert plan.imbalance() >= 1.0

    def test_single_shard_no_exchange(self, workload):
        tensor, factor = workload
        plan = plan_sharded_exchange(tensor, 1, factor.shape[1])
        assert plan.exchanges == []
        assert plan.n_rounds == 0
        assert simulate_sharded_time(plan) == plan.shard_costs[0] / 1e9

    def test_simulated_time_terms(self, workload):
        tensor, factor = workload
        plan = plan_sharded_exchange(tensor, 4, factor.shape[1])
        compute_only = simulate_sharded_time(
            plan, bandwidth_bytes=1e15, latency_seconds=0.0
        )
        assert compute_only == pytest.approx(max(plan.shard_costs) / 1e9, rel=1e-6)
        with_latency = simulate_sharded_time(plan, latency_seconds=1.0)
        assert with_latency >= compute_only + plan.n_rounds
        slow_net = simulate_sharded_time(
            plan, bandwidth_bytes=1e3, latency_seconds=0.0
        )
        assert slow_net > compute_only

    def test_invalid_shards(self, workload):
        tensor, factor = workload
        with pytest.raises(ValueError):
            plan_sharded_exchange(tensor, 0, factor.shape[1])
