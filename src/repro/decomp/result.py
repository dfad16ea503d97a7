"""Decomposition results and convergence traces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.stats import KernelStats
from ..formats.partial_sym import PartiallySymmetricTensor
from ..runtime.timer import PhaseTimer

__all__ = ["ConvergenceTrace", "DecompositionResult"]


@dataclass
class ConvergenceTrace:
    """Per-iteration objective history of one Tucker run.

    ``core_norm_squared`` records ``‖C‖²`` directly (no ``‖X‖² − f``
    cancellation), so captured-energy fractions stay exact even when the
    relative error saturates near 1.
    """

    objective: List[float] = field(default_factory=list)
    relative_error: List[float] = field(default_factory=list)
    core_norm_squared: List[float] = field(default_factory=list)

    def record(
        self, objective: float, rel_error: float, core_norm_sq: float = float("nan")
    ) -> None:
        self.objective.append(float(objective))
        self.relative_error.append(float(rel_error))
        self.core_norm_squared.append(float(core_norm_sq))

    def energy_fraction(self, norm_x_squared: float) -> List[float]:
        """``‖C‖²/‖X‖²`` per iteration (cancellation-free)."""
        if norm_x_squared <= 0:
            return [0.0 for _ in self.core_norm_squared]
        return [c / norm_x_squared for c in self.core_norm_squared]

    @property
    def iterations(self) -> int:
        return len(self.objective)

    @property
    def final_error(self) -> Optional[float]:
        return self.relative_error[-1] if self.relative_error else None


@dataclass
class DecompositionResult:
    """Output of HOOI/HOQRI.

    Attributes
    ----------
    factor:
        Orthonormal ``U ∈ R^{I×R}``.
    core:
        Core tensor in compact partially symmetric form ``C_p``
        (``nrows = R``); fully symmetric mathematically, stored this way to
        match ``Y_p``'s layout (Section IV-A).
    trace:
        Objective/error per iteration.
    converged:
        Whether the stopping tolerance was reached before ``max_iters``.
    algorithm:
        ``"hooi"`` or ``"hoqri"`` plus kernel annotations.
    timer:
        Phase breakdown (s3ttmc / svd / qr / core / objective).
    stats:
        Accumulated kernel statistics.
    """

    factor: np.ndarray
    core: PartiallySymmetricTensor
    trace: ConvergenceTrace
    converged: bool
    algorithm: str
    timer: PhaseTimer
    stats: KernelStats
    norm_x_squared: float

    @property
    def iterations(self) -> int:
        return self.trace.iterations

    @property
    def relative_error(self) -> float:
        err = self.trace.final_error
        return err if err is not None else 1.0

    @property
    def fit(self) -> float:
        return 1.0 - self.relative_error

    def orthonormality_defect(self) -> float:
        """``‖UᵀU − I‖_F`` — zero for a valid result up to round-off."""
        rank = self.factor.shape[1]
        return float(np.linalg.norm(self.factor.T @ self.factor - np.eye(rank)))
