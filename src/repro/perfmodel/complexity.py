"""Closed-form complexity models (Section III-D, Table II, Eq. 9).

These are the paper's flop-count formulas, implemented exactly; the test
suite equates them with the instrumented kernel counters
(:class:`repro.core.stats.KernelStats`) on all-distinct-index tensors with
per-non-zero memoization — the regime the formulas describe.
"""

from __future__ import annotations

import math
from typing import Dict

from ..symmetry.combinatorics import binomial, sym_storage_size

__all__ = [
    "c_css",
    "c_sp",
    "total_css",
    "total_sp",
    "total_cp",
    "kernel_flops_for_layout",
    "svd_cost",
    "qr_cost",
    "hoqri_nary_cost",
    "ttmc_tc_extra_cost",
    "table2_complexities",
]


def c_css(level: int, order: int, rank: int, unnz: int) -> int:
    """Level-``l`` S³TTMc cost with full intermediates:
    ``(2l−1)·C(N,l)·R^l·unnz``."""
    return (2 * level - 1) * binomial(order, level) * rank**level * unnz


def c_sp(level: int, order: int, rank: int, unnz: int) -> int:
    """Level-``l`` S³TTMc cost with compact intermediates (Eq. 9):
    ``(2l−1)·C(N,l)·S_{l,R}·unnz``."""
    return (
        (2 * level - 1)
        * binomial(order, level)
        * sym_storage_size(level, rank)
        * unnz
    )


def total_css(order: int, rank: int, unnz: int) -> int:
    """``C^CSS = Σ_{l=2}^{N-1} c_css + 2N·R^{N-1}·unnz`` (Section V-C)."""
    levels = sum(c_css(l, order, rank, unnz) for l in range(2, order))
    return levels + 2 * order * rank ** (order - 1) * unnz


def total_sp(order: int, rank: int, unnz: int) -> int:
    """``C^SP = Σ_{l=2}^{N-1} c_sp + 2N·S_{N-1,R}·unnz``."""
    levels = sum(c_sp(l, order, rank, unnz) for l in range(2, order))
    return levels + 2 * order * sym_storage_size(order - 1, rank) * unnz


def total_cp(order: int, rank: int, unnz: int) -> int:
    """MTTKRP via the elementwise (``cp``) intermediate layout:
    ``Σ_{l=2}^{N-1} (2l−1)·C(N,l)·R·unnz + 2N·R·unnz``."""
    levels = sum(
        (2 * l - 1) * binomial(order, l) * rank for l in range(2, order)
    )
    return (levels + 2 * order * rank) * unnz


def kernel_flops_for_layout(
    intermediate: str, order: int, rank: int, unnz: int
) -> int:
    """Exact kernel flops of one :func:`repro.core.engine.lattice_ttmc`
    call in the closed-form regime.

    Valid when every index tuple has ``order`` distinct values and
    memoization is per-non-zero (``memoize="nonzero"``) — exactly the
    regime Eq. 9 describes. :class:`repro.core.stats.KernelStats`
    equals these numbers there (the ``repro.verify`` flop invariant).
    """
    if intermediate == "compact":
        return total_sp(order, rank, unnz)
    if intermediate == "full":
        return total_css(order, rank, unnz)
    if intermediate == "cp":
        return total_cp(order, rank, unnz)
    raise ValueError(f"unknown intermediate layout {intermediate!r}")


def svd_cost(dim: int, order: int, rank: int) -> int:
    """HOOI SVD step: ``O(I·R^{N-1}·min(I, R^{N-1}))``."""
    cols = rank ** (order - 1)
    return dim * cols * min(dim, cols)


def qr_cost(dim: int, rank: int) -> int:
    """HOQRI QR step: ``O(I·R²)``."""
    return dim * rank**2


def hoqri_nary_cost(order: int, rank: int, unnz: int) -> int:
    """Original HOQRI n-ary contraction: ``O(R^N·N!·unnz)`` (Table II)."""
    return rank**order * math.factorial(order) * unnz


def ttmc_tc_extra_cost(dim: int, order: int, rank: int) -> int:
    """The two Algorithm-2 GEMMs: ``O(I·S_{N-1,R}·R)`` each."""
    return 2 * dim * sym_storage_size(order - 1, rank) * rank


def table2_complexities(
    dim: int, order: int, rank: int, unnz: int
) -> Dict[str, int]:
    """All four Table II algorithm complexities (per iteration)."""
    return {
        "HOOI-CSS": total_css(order, rank, unnz) + svd_cost(dim, order, rank),
        "HOOI-SymProp": total_sp(order, rank, unnz) + svd_cost(dim, order, rank),
        "HOQRI": hoqri_nary_cost(order, rank, unnz),
        "HOQRI-SymProp": total_sp(order, rank, unnz)
        + ttmc_tc_extra_cost(dim, order, rank)
        + qr_cost(dim, rank),
    }
