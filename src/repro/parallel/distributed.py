"""Distributed-memory S³TTMc: partitioning and communication-volume model.

The paper's related work (Kaya & Uçar; Chakaravarthy et al.) distributes
TTMc by partitioning non-zeros and communicating factor rows and output
partials. This module models a coarse-grain distributed SymProp kernel:

* non-zeros are partitioned across ``p`` processes (contiguous balanced
  ranges, reusing :mod:`repro.parallel.partition`);
* each process must *receive* the ``U`` rows touched by its non-zeros that
  it does not own (block row distribution of ``U`` and ``Y``);
* each process *sends* partial ``Y`` rows for output rows it touched but
  does not own (reduce-scatter).

All volumes are computed exactly from the index data — this is a planning
/analysis tool (what would this partition cost on a real cluster?), and a
simulator turns volumes into estimated times under a latency/bandwidth
machine model. It does not require MPI; on clusters the same partition
maps directly onto an mpi4py implementation.

Sharded-exchange model
----------------------
The original :class:`CommunicationPlan` models a hypothetical block-row
distribution. Parallel execution (:mod:`repro.parallel.sharding`)
actually *runs* a distribution in-process:
workers own disjoint shards and partials merge through a deterministic
pairwise reduction tree whose per-merge volumes are emitted as
``parallel.reduce.exchange`` trace events. :func:`plan_sharded_exchange`
predicts those exchanges from the shard row sets (via
:func:`~repro.parallel.sharding.merge_schedule`, the same code the merge
executes), :func:`simulate_sharded_time` prices them under the α-β model,
and :func:`exchange_from_trace` extracts the measured records from a
collector so the two can be compared record-for-record — the verify
oracle asserts they agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.s3ttmc import SymmetricInput, _as_ucoo
from ..symmetry.combinatorics import sym_storage_size
from .partition import balanced_partition, estimate_nonzero_costs
from .sharding import build_shards, merge_schedule

__all__ = [
    "CommunicationPlan",
    "ShardedExchangePlan",
    "exchange_from_trace",
    "plan_distribution",
    "plan_sharded_exchange",
    "simulate_distributed_time",
    "simulate_sharded_time",
]


@dataclass
class CommunicationPlan:
    """Exact per-process communication volumes of one distribution.

    Volumes are in *rows*; multiply by the row width in bytes
    (``R`` doubles for ``U``, ``S_{N-1,R}`` doubles for ``Y``) to get
    traffic.
    """

    n_procs: int
    ranges: List[tuple]
    owned_rows: List[np.ndarray]
    recv_factor_rows: List[int]
    send_output_rows: List[int]
    local_work: List[float]

    @property
    def total_factor_volume(self) -> int:
        return sum(self.recv_factor_rows)

    @property
    def total_output_volume(self) -> int:
        return sum(self.send_output_rows)

    def max_recv(self) -> int:
        return max(self.recv_factor_rows, default=0)

    def imbalance(self) -> float:
        """max/mean local work (1.0 = perfect balance)."""
        if not self.local_work or sum(self.local_work) == 0:
            return 1.0
        mean = sum(self.local_work) / len(self.local_work)
        return max(self.local_work) / mean


def plan_distribution(
    tensor: SymmetricInput,
    n_procs: int,
    rank: int,
    *,
    row_owner: Optional[np.ndarray] = None,
) -> CommunicationPlan:
    """Partition non-zeros and compute exact communication volumes.

    ``row_owner`` optionally assigns each of the ``I`` rows of ``U``/``Y``
    to a process (default: contiguous blocks of ``I / p``).
    """
    ucoo = _as_ucoo(tensor)
    if n_procs < 1:
        raise ValueError("n_procs must be >= 1")
    dim = ucoo.dim
    if row_owner is None:
        row_owner = np.minimum(
            (np.arange(dim, dtype=np.int64) * n_procs) // max(dim, 1), n_procs - 1
        )
    else:
        row_owner = np.asarray(row_owner, dtype=np.int64)
        if row_owner.shape != (dim,):
            raise ValueError(f"row_owner must have shape ({dim},)")
        if row_owner.size and (row_owner.min() < 0 or row_owner.max() >= n_procs):
            raise ValueError("row_owner out of range")

    costs = estimate_nonzero_costs(ucoo.indices, rank)
    ranges = balanced_partition(costs, n_procs)

    owned_rows = [np.flatnonzero(row_owner == p) for p in range(n_procs)]
    recv_factor, send_output, work = [], [], []
    for p, (start, stop) in enumerate(ranges):
        touched = np.unique(ucoo.indices[start:stop])
        foreign = touched[row_owner[touched] != p] if touched.size else touched
        # S³TTMc reads U rows for *all* indices of each non-zero and
        # accumulates Y rows at the same index set (every index of an IOU
        # non-zero is both a U-gather and a Y-scatter target).
        recv_factor.append(int(foreign.shape[0]))
        send_output.append(int(foreign.shape[0]))
        work.append(float(costs[start:stop].sum()))
    return CommunicationPlan(
        n_procs=n_procs,
        ranges=ranges,
        owned_rows=owned_rows,
        recv_factor_rows=recv_factor,
        send_output_rows=send_output,
        local_work=work,
    )


def simulate_distributed_time(
    plan: CommunicationPlan,
    order: int,
    rank: int,
    *,
    flop_rate: float = 1e9,
    bandwidth_bytes: float = 1e9,
    latency_seconds: float = 1e-5,
    messages_per_phase: Optional[int] = None,
) -> float:
    """Estimated distributed iteration time under an α-β machine model.

    ``T = max_p work_p / flop_rate + α·messages + β·max_p bytes_p`` with
    the factor-gather and output-reduce phases each counted. Deliberately
    simple — the point is comparing partitions, not forecasting clusters.
    """
    if messages_per_phase is None:
        messages_per_phase = plan.n_procs - 1
    compute = max(plan.local_work, default=0.0) / flop_rate
    factor_bytes = plan.max_recv() * rank * 8
    output_bytes = max(plan.send_output_rows, default=0) * sym_storage_size(
        order - 1, rank
    ) * 8
    comm = (
        2 * latency_seconds * max(messages_per_phase, 0)
        + (factor_bytes + output_bytes) / bandwidth_bytes
    )
    return compute + comm


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
    transfer. Deliberately the same spirit as
    :func:`simulate_distributed_time` — compare shard layouts, don't
    forecast clusters.
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
