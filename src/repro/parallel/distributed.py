"""Communication model of sharded S³TTMc.

The paper's related work (Kaya & Uçar; Chakaravarthy et al.) distributes
TTMc by partitioning non-zeros and communicating factor rows and output
partials. Parallel execution (:mod:`repro.parallel.sharding`) *runs* such
a distribution in-process: workers own disjoint shards and partials merge
through a deterministic pairwise reduction tree whose per-merge volumes
are emitted as ``parallel.reduce.exchange`` trace events. :func:`plan_sharded_exchange`
predicts those exchanges from the shard row sets (via
:func:`~repro.parallel.sharding.merge_schedule`, the same code the merge
executes), :func:`simulate_sharded_time` prices them under the α-β model,
and :func:`exchange_from_trace` extracts the measured records from a
collector so the two can be compared record-for-record — the verify
oracle asserts they agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.s3ttmc import SymmetricInput, _as_ucoo
from ..symmetry.combinatorics import sym_storage_size
from .sharding import build_shards, merge_schedule

__all__ = [
    "ShardedExchangePlan",
    "exchange_from_trace",
    "plan_sharded_exchange",
    "simulate_sharded_time",
]


@dataclass
class ShardedExchangePlan:
    """Predicted cross-shard reduction exchanges of one sharded run.

    ``exchanges`` holds one record per pairwise merge in execution order
    (``{"round", "src", "dst", "rows", "bytes"}``) — byte-for-byte what a
    real parallel run emits as ``parallel.reduce.exchange``
    trace events, because both come from
    :func:`~repro.parallel.sharding.merge_schedule` over the same shard
    row sets. ``shard_rows`` / ``shard_costs`` describe the shards the
    plan was built from.
    """

    n_shards: int
    cols: int
    ranges: List[tuple]
    shard_rows: List[int]
    shard_costs: List[float]
    exchanges: List[Dict[str, int]] = field(default_factory=list)

    @property
    def n_rounds(self) -> int:
        return 1 + max((e["round"] for e in self.exchanges), default=-1)

    @property
    def total_exchange_bytes(self) -> int:
        return sum(e["bytes"] for e in self.exchanges)

    def round_bytes(self) -> List[int]:
        """Per-round max single-merge payload (merges in a round are
        pairwise-disjoint, so they can proceed concurrently; the round's
        wire time is bounded by its largest transfer)."""
        out = [0] * self.n_rounds
        for e in self.exchanges:
            out[e["round"]] = max(out[e["round"]], e["bytes"])
        return out

    def imbalance(self) -> float:
        """max/mean shard work (1.0 = perfect balance)."""
        if not self.shard_costs or sum(self.shard_costs) == 0:
            return 1.0
        mean = sum(self.shard_costs) / len(self.shard_costs)
        return max(self.shard_costs) / mean


def plan_sharded_exchange(
    tensor: SymmetricInput,
    n_shards: int,
    rank: int,
    *,
    ctx=None,
) -> ShardedExchangePlan:
    """Exchange plan for a parallel (owned-shard) run of ``tensor``.

    Builds the exact shards :func:`~repro.parallel.sharding.build_shards`
    would hand the backend (same cached partition), then predicts the
    hierarchical reduction's per-merge volumes. A trace of a real run
    (:func:`exchange_from_trace`) matches ``plan.exchanges``
    record-for-record.
    """
    ucoo = _as_ucoo(tensor)
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    shards = build_shards(ucoo, n_shards, rank, ctx=ctx)
    cols = sym_storage_size(ucoo.order - 1, rank)
    return ShardedExchangePlan(
        n_shards=len(shards),
        cols=cols,
        ranges=[(s.start, s.stop) for s in shards],
        shard_rows=[s.n_rows for s in shards],
        shard_costs=[s.cost for s in shards],
        exchanges=merge_schedule([s.rows for s in shards], cols),
    )


def simulate_sharded_time(
    plan: ShardedExchangePlan,
    *,
    flop_rate: float = 1e9,
    bandwidth_bytes: float = 1e9,
    latency_seconds: float = 1e-5,
) -> float:
    """Estimated sharded iteration time under the α-β machine model.

    ``T = max_s work_s / flop_rate + Σ_rounds (α + max-merge-bytes / β)``:
    shards compute concurrently (the slowest gates the reduction), then
    each reduction round costs one latency plus its largest concurrent
    transfer. Deliberately simple — compare shard layouts, don't forecast
    clusters.
    """
    compute = max(plan.shard_costs, default=0.0) / flop_rate
    comm = sum(
        latency_seconds + nbytes / bandwidth_bytes
        for nbytes in plan.round_bytes()
    )
    return compute + comm


def exchange_from_trace(collector) -> List[Dict[str, int]]:
    """Measured ``parallel.reduce.exchange`` records from a collector.

    Returns them in emission order with the same keys as
    :attr:`ShardedExchangePlan.exchanges`, so plan-vs-trace agreement is
    a plain list equality. Multiple sharded runs under one collector
    concatenate; scope the collector per run when comparing.
    """
    out: List[Dict[str, int]] = []
    for event in getattr(collector, "events", []):
        if event.name != "parallel.reduce.exchange":
            continue
        attrs = event.attrs
        out.append(
            {
                "round": int(attrs["round"]),
                "src": int(attrs["src"]),
                "dst": int(attrs["dst"]),
                "rows": int(attrs["rows"]),
                "bytes": int(attrs["bytes"]),
            }
        )
    return out
