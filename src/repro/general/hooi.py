"""General (per-mode-factor) HOOI for sparse COO tensors.

The textbook HOOI of De Lathauwer et al. [13] with a distinct factor per
mode, running on the general CSF TTMc substrate. The symmetric algorithms
of :mod:`repro.decomp` are the specialization this library optimizes; the
general version exists as the substrate baseline and lets tests confirm
that feeding a symmetric tensor through the general machinery reproduces
the symmetric objective.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np
import scipy.linalg

from ..core.stats import KernelStats
from ..formats.coo import COOTensor
from ..runtime.context import ExecContext, resolve_context
from ..runtime.timer import PhaseTimer
from .ttmc import general_ttmc

__all__ = ["GeneralTuckerResult", "general_hooi"]


class GeneralTuckerResult:
    """Factors, core (full ndarray) and objective trace of general HOOI."""

    def __init__(
        self,
        factors: List[np.ndarray],
        core: np.ndarray,
        objective_trace: List[float],
        converged: bool,
        timer: PhaseTimer,
        stats: KernelStats,
        norm_x_squared: float,
    ):
        self.factors = factors
        self.core = core
        self.objective_trace = objective_trace
        self.converged = converged
        self.timer = timer
        self.stats = stats
        self.norm_x_squared = norm_x_squared

    @property
    def iterations(self) -> int:
        return len(self.objective_trace)

    @property
    def relative_error(self) -> float:
        if self.norm_x_squared <= 0:
            return 0.0
        f = max(self.objective_trace[-1], 0.0)
        return float(np.sqrt(f / self.norm_x_squared))


def _init_factors(
    tensor: COOTensor,
    ranks: Sequence[int],
    init: Union[str, Sequence[np.ndarray]],
    rng: np.random.Generator,
) -> List[np.ndarray]:
    if not isinstance(init, str):
        factors = [np.asarray(f, dtype=np.float64).copy() for f in init]
        if len(factors) != tensor.order:
            raise ValueError("need one init factor per mode")
        return factors
    if init != "random":
        raise ValueError(f"unknown init {init!r} (general HOOI supports 'random')")
    factors = []
    for _mode, rank in enumerate(ranks):
        gauss = rng.standard_normal((tensor.dim, rank))
        q, _ = np.linalg.qr(gauss)
        factors.append(q)
    return factors


def general_hooi(
    tensor: COOTensor,
    ranks: Union[int, Sequence[int]],
    *,
    max_iters: int = 50,
    tol: float = 1e-8,
    init: Union[str, Sequence[np.ndarray]] = "random",
    seed: Optional[int] = None,
    timer: Optional[PhaseTimer] = None,
    ctx: Optional[ExecContext] = None,
) -> GeneralTuckerResult:
    """Alternating least squares Tucker for a general sparse tensor.

    ``ranks`` may be one integer (same rank per mode) or a per-mode list.
    Each sweep updates every mode via the leading left singular vectors of
    the corresponding TTMc unfolding; the objective is
    ``‖X‖² − ‖C‖²`` with the core from the final mode of the sweep.
    ``ctx`` supplies the run's budget/collector/seed (the current
    context when ``None``) — same entry contract as the symmetric drivers, so bench
    comparisons are apples-to-apples.
    """
    ctx = resolve_context(ctx)
    order = tensor.order
    if isinstance(ranks, int):
        ranks = [ranks] * order
    ranks = list(ranks)
    if len(ranks) != order:
        raise ValueError(f"need {order} ranks")
    if any(not 1 <= r <= tensor.dim for r in ranks):
        raise ValueError("each rank must be in [1, dim]")
    if seed is None:
        seed = ctx.seed
    rng = np.random.default_rng(seed)
    timer = timer if timer is not None else PhaseTimer()
    timer.collector = ctx.collector
    stats = KernelStats()

    trace: List[float] = []
    converged = False
    prev = np.inf
    core: Optional[np.ndarray] = None
    with ctx.scope():
        with timer.phase("init"):
            factors = _init_factors(tensor, ranks, init, rng)
            norm_x_squared = tensor.norm_squared()

        for _sweep in range(max_iters):
            for mode in range(order):
                with timer.phase("ttmc"):
                    y = general_ttmc(tensor, factors, mode, stats=stats)
                with timer.phase("svd"):
                    u, _s, _vt = scipy.linalg.svd(y, full_matrices=False)
                    factors[mode] = u[:, : ranks[mode]].copy()
                if mode == order - 1:
                    with timer.phase("core"):
                        c_unfold = factors[mode].T @ y
                        core = c_unfold
            assert core is not None
            objective = norm_x_squared - float(np.sum(core**2))
            trace.append(objective)
            if prev - objective <= tol * max(norm_x_squared, 1e-300):
                converged = True
                break
            prev = objective

    # Reshape the final core unfolding (mode N-1 rooted) to the full core:
    # columns of c_unfold are modes 0..N-2 in row-major order.
    last = order - 1
    core_shape = tuple(ranks[m] for m in range(order) if m != last) + (ranks[last],)
    core_tensor = np.moveaxis(
        core.T.reshape(core_shape), -1, last
    )
    return GeneralTuckerResult(
        factors=factors,
        core=core_tensor,
        objective_trace=trace,
        converged=converged,
        timer=timer,
        stats=stats,
        norm_x_squared=norm_x_squared,
    )
