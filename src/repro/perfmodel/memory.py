"""Closed-form memory footprints: who OOMs where, and why.

Every "OOM" entry in Figures 4, 5 and 7 is explained by one of four
allocations; this module computes them exactly so harnesses (and tests)
can predict budget exhaustion without running the kernels:

* SPLATT: the expanded non-zero set and the full output ``Y_(1)``;
* CSS: full intermediate ``K`` tensors plus the full output;
* SymProp: compact intermediates plus the compact output ``Y_p(1)``;
* HOOI: the SVD-side expansion of ``Y_p`` to ``I × R^{N-1}``.

:func:`worker_footprint` extends the same accounting to the parallel
backends' per-worker peak: each worker holds only its shard slice
(:mod:`repro.parallel.sharding`) plus the private row-block —
``O(shard + row-block)`` instead of ``O(tensor)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from ..symmetry.combinatorics import binomial, dense_size, sym_storage_size

__all__ = [
    "y_full_bytes",
    "y_compact_bytes",
    "expanded_coo_bytes",
    "lattice_level_nodes_bound",
    "intermediate_bytes_bound",
    "suggest_nz_batch",
    "KernelFootprint",
    "kernel_footprint",
    "WorkerFootprint",
    "worker_footprint",
]

_FLOAT = 8
_INT = 8


def y_full_bytes(dim: int, order: int, rank: int) -> int:
    """Full matricized output ``Y_(1) ∈ R^{I × R^{N-1}}`` (CSS / SPLATT / HOOI-SVD)."""
    return dim * dense_size(order - 1, rank) * _FLOAT


def y_compact_bytes(dim: int, order: int, rank: int) -> int:
    """Compact output ``Y_p(1) ∈ R^{I × S_{N-1,R}}`` (SymProp)."""
    return dim * sym_storage_size(order - 1, rank) * _FLOAT


def expanded_coo_bytes(order: int, unnz: int, *, all_distinct: bool = True) -> int:
    """Expanded non-zero storage (indices + values) for general formats.

    ``all_distinct`` assumes maximal ``N!`` multiplicity per IOU non-zero
    (the common case for hypergraph data with distinct nodes); otherwise
    callers should sum exact permutation counts.
    """
    per = math.factorial(order) if all_distinct else 1
    nnz = per * unnz
    return nnz * (order * _INT + _FLOAT)


def lattice_level_nodes_bound(order: int, level: int, unnz: int) -> int:
    """Upper bound on level-``level`` lattice nodes for ``unnz`` non-zeros.

    Each non-zero contributes at most ``C(N, l)`` distinct sub-multisets
    (Section III-D); global memoization only reduces this.
    """
    return binomial(order, level) * unnz


def intermediate_bytes_bound(
    order: int, rank: int, unnz: int, intermediate: str
) -> int:
    """Worst-case bytes of the largest per-level ``K`` array."""
    worst = 0
    for level in range(2, order):
        size = (
            sym_storage_size(level, rank)
            if intermediate == "compact"
            else dense_size(level, rank)
        )
        worst = max(worst, lattice_level_nodes_bound(order, level, unnz) * size * _FLOAT)
    return worst


def suggest_nz_batch(
    order: int,
    rank: int,
    intermediate: str,
    budget_bytes: int,
    *,
    fraction: float = 0.25,
    default: int = 512,
) -> Optional[int]:
    """Largest non-zero batch whose intermediates fit ``fraction`` of budget.

    Returns ``None`` (no batching needed) when even the default batch fits,
    or a smaller batch size; returns 0 when a *single* non-zero's lattice
    cannot fit — a guaranteed OOM the caller should surface.
    """
    allowance = int(budget_bytes * fraction)
    per_nz = intermediate_bytes_bound(order, rank, 1, intermediate)
    if per_nz == 0:
        return None
    if per_nz > allowance:
        return 0
    batch = max(1, allowance // per_nz)
    return min(batch, default)


@dataclass(frozen=True)
class KernelFootprint:
    """Dominant allocations of one kernel invocation (bytes)."""

    output: int
    intermediates: int
    expansion: int

    @property
    def total(self) -> int:
        return self.output + self.intermediates + self.expansion

    def fits(self, budget_bytes: int) -> bool:
        return self.total <= budget_bytes


def kernel_footprint(
    kernel: str,
    dim: int,
    order: int,
    rank: int,
    unnz: int,
    *,
    nz_batch: int = 512,
) -> KernelFootprint:
    """Footprint of one kernel family on one problem.

    ``kernel`` ∈ {"symprop", "css", "splatt", "hoqri-nary", "hooi-svd"}.
    """
    batch = max(1, min(nz_batch, unnz))
    if kernel == "symprop":
        return KernelFootprint(
            output=y_compact_bytes(dim, order, rank),
            intermediates=intermediate_bytes_bound(order, rank, batch, "compact"),
            expansion=0,
        )
    if kernel == "css":
        return KernelFootprint(
            output=y_full_bytes(dim, order, rank),
            intermediates=intermediate_bytes_bound(order, rank, batch, "full"),
            expansion=0,
        )
    if kernel == "splatt":
        return KernelFootprint(
            output=y_full_bytes(dim, order, rank),
            intermediates=0,
            expansion=expanded_coo_bytes(order, unnz),
        )
    if kernel == "hoqri-nary":
        return KernelFootprint(
            output=dim * rank * _FLOAT,
            intermediates=rank * dense_size(order - 1, rank) * _FLOAT,
            expansion=expanded_coo_bytes(order, unnz),
        )
    if kernel == "hooi-svd":
        return KernelFootprint(
            output=y_compact_bytes(dim, order, rank),
            intermediates=y_full_bytes(dim, order, rank),
            expansion=0,
        )
    raise ValueError(f"unknown kernel {kernel!r}")


@dataclass(frozen=True)
class WorkerFootprint:
    """Peak bytes one parallel worker must hold resident (SymProp kernel)."""

    tensor: int  # non-zero indices + values the worker sees
    partial: int  # its output partial (compact row-block)
    intermediates: int  # per-batch lattice K arrays

    @property
    def total(self) -> int:
        return self.tensor + self.partial + self.intermediates

    def fits(self, budget_bytes: int) -> bool:
        return self.total <= budget_bytes


def worker_footprint(
    dim: int,
    order: int,
    rank: int,
    unnz: int,
    *,
    n_workers: int,
    shard_nnz: Optional[int] = None,
    shard_rows: Optional[int] = None,
    nz_batch: int = 512,
) -> WorkerFootprint:
    """Per-worker peak footprint of one parallel S³TTMc invocation.

    Each worker holds only its shard — modeled as the balanced
    ``ceil(unnz / n_workers)`` slice unless the caller passes the actual
    ``shard_nnz`` (widest shard) from a real partition — and accumulates
    into a compact row-block. ``shard_rows`` bounds that row-block; the
    default is the structural bound ``min(dim, shard_nnz · order)`` (a
    chunk cannot touch more output rows than it has index entries).
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if shard_nnz is None:
        shard_nnz = -(-unnz // n_workers)  # balanced-slice bound
    if shard_rows is None:
        shard_rows = min(dim, shard_nnz * order)
    cols = sym_storage_size(order - 1, rank)
    batch = max(1, min(nz_batch, max(shard_nnz, 1)))
    return WorkerFootprint(
        tensor=shard_nnz * (order * _INT + _FLOAT),
        partial=shard_rows * cols * _FLOAT,
        intermediates=intermediate_bytes_bound(order, rank, batch, "compact"),
    )


def footprint_table(
    dim: int, order: int, rank: int, unnz: int
) -> Dict[str, KernelFootprint]:
    """Footprints of all kernel families on one problem."""
    return {
        k: kernel_footprint(k, dim, order, rank, unnz)
        for k in ("symprop", "css", "splatt", "hoqri-nary", "hooi-svd")
    }
