"""Kernel instrumentation: exact flop and allocation accounting.

Every SymProp/CSS kernel invocation can fill a :class:`KernelStats`, which
records floating-point operations per lattice level plus structural counts.
The flop counting follows the paper's convention (Section III-D): one
fused multiply and one add are two flops; the first term of each
accumulation needs no add, giving ``(2·deg − 1)`` flops per output entry
for a node with ``deg`` recurrence terms.

These numbers are *exact by construction* (derived from the lattice sizes,
not sampled), which lets the test suite equate them with the closed-form
complexity model ``c_sp`` / ``c_css`` (Eq. 9) — the reproduction of the
paper's complexity analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["KernelStats"]


@dataclass
class KernelStats:
    """Mutable per-invocation kernel counters.

    Attributes
    ----------
    level_flops:
        Flops spent computing the level-``l`` intermediate ``K`` tensors.
    scatter_flops:
        Flops of the final accumulation into the output ``Y`` rows.
    extra_flops:
        Flops of any post-processing (e.g. the two GEMMs of S³TTMcTC).
    level_nodes / level_edges:
        Lattice sizes per level (after memoization/dedup).
    intermediate_bytes:
        Peak bytes held in ``K`` level arrays.
    output_bytes:
        Bytes of the returned ``Y`` (or ``A``) container.
    """

    level_flops: Dict[int, int] = field(default_factory=dict)
    scatter_flops: int = 0
    extra_flops: int = 0
    level_nodes: Dict[int, int] = field(default_factory=dict)
    level_edges: Dict[int, int] = field(default_factory=dict)
    intermediate_bytes: int = 0
    output_bytes: int = 0
    batches: int = 0

    def add_level(self, level: int, nodes: int, edges: int, entry_size: int) -> None:
        """Record one computed lattice level.

        ``entry_size`` is the per-node K-tensor entry count (``S_{l,R}``
        compact, ``R**l`` full). Flops: each edge contributes a multiply and
        an add per entry, minus one add per node (first term).
        """
        flops = (2 * edges - nodes) * entry_size
        self.level_flops[level] = self.level_flops.get(level, 0) + flops
        self.level_nodes[level] = self.level_nodes.get(level, 0) + nodes
        self.level_edges[level] = self.level_edges.get(level, 0) + edges
        # Peak single-level K footprint: levels are materialized one at a
        # time, so their bytes never sum.
        self.intermediate_bytes = max(self.intermediate_bytes, nodes * entry_size * 8)

    def add_scatter(self, edges: int, entry_size: int) -> None:
        """Record the value-scaled accumulation into output rows."""
        self.scatter_flops += 2 * edges * entry_size

    def add_gemm(self, m: int, n: int, k: int) -> None:
        """Record a dense ``(m×k)·(k×n)`` matrix multiplication."""
        self.extra_flops += 2 * m * n * k

    def add_scale(self, entries: int) -> None:
        """Record an elementwise scaling pass."""
        self.extra_flops += entries

    @property
    def kernel_flops(self) -> int:
        """Lattice + scatter flops (the ``C^SP`` / ``C^CSS`` quantity)."""
        return sum(self.level_flops.values()) + self.scatter_flops
