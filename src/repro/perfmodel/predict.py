"""Runtime prediction: closed-form flops × calibrated machine rates.

Combines the Eq.-9-style flop models with empirically measured effective
flop rates to extrapolate runtimes for configurations too expensive to
measure — the mechanism behind the benchmark harness's ``~`` (estimated)
cells, exposed as a library feature for capacity planning.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from .complexity import total_cp, total_css, total_sp

__all__ = [
    "kernel_flops_model",
    "RateCalibration",
    "predict_seconds",
]


def kernel_flops_model(
    family: str, order: int, rank: int, unnz: int, dim: int = 400
) -> float:
    """Closed-form kernel flop count per invocation.

    ``family`` ∈ {"symprop", "symprop-tc", "css", "splatt", "hoqri-nary",
    "cp"}, optionally with an engine-mode suffix (``symprop+compiled``):
    the fused compiled kernels perform the same arithmetic, so a suffixed
    family shares its base family's flop count (only its calibrated
    *rate* differs).
    """
    family = family.partition("+")[0] or family
    if family in ("symprop", "symprop-tc"):
        return float(total_sp(order, rank, unnz))
    if family == "css":
        return float(total_css(order, rank, unnz))
    if family == "cp":
        return float(total_cp(order, rank, unnz))
    if family == "splatt":
        # CSF TTMc over the expanded tensor: depth-d combine costs
        # 2·n_{d+1}·R^{N-d} with n_{d+1} ≤ min(nnz, dim^{d+1}) fiber-tree
        # nodes (prefix sharing caps the shallow levels).
        nnz = math.factorial(order) * unnz
        total = 0.0
        for d in range(1, order):
            nodes = min(nnz, dim ** (d + 1))
            total += 2.0 * nodes * rank ** (order - d)
        return total
    if family == "hoqri-nary":
        return float(2 * rank**order * math.factorial(order) * unnz)
    raise ValueError(f"unknown family {family!r}")


class RateCalibration:
    """Effective flop rates per kernel family, from measured samples.

    Record ``(flops, seconds)`` pairs as you measure; query the median rate
    per family (falling back to the pooled median — the same vectorized
    engine backs every family, so rates transfer approximately).
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}

    def record(self, family: str, flops: float, seconds: float) -> None:
        if seconds > 1e-4 and flops > 0:
            self.samples.setdefault(family, []).append(flops / seconds)

    def rate(self, family: str) -> Optional[float]:
        rates = self.samples.get(family)
        if not rates:
            rates = [r for rs in self.samples.values() for r in rs]
        if not rates:
            return None
        return float(np.median(rates))


def predict_seconds(
    calibration: RateCalibration,
    family: str,
    order: int,
    rank: int,
    unnz: int,
    dim: int = 400,
) -> Optional[float]:
    """Extrapolated runtime, or ``None`` without any calibration sample."""
    rate = calibration.rate(family)
    if rate is None:
        return None
    return kernel_flops_model(family, order, rank, unnz, dim) / rate

