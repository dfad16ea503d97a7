"""Symmetric CP decomposition via ALS on the SymProp MTTKRP kernel.

Approximates a sparse symmetric tensor by a symmetric rank-``R`` CP model
``X̂ = Σ_r λ_r · u_r ⊗ ... ⊗ u_r`` with unit-norm columns ``u_r``. The
fixed-point update is the symmetric adaptation of CP-ALS:

``U ← M(U) · V(U)†``, ``V = (UᵀU)^{⊙(N-1)}`` (elementwise power),
``M`` = sparse symmetric MTTKRP — then column normalization yields ``λ``.

Symmetric ALS is a heuristic (no monotonicity guarantee — see Kolda &
Mayo); in practice it converges on tensors with genuine symmetric CP
structure, and the exact objective is evaluated every sweep so stagnation
is detected honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from ..core.plan import get_plan
from ..core.s3ttmc import SymmetricInput, _as_ucoo
from ..core.stats import KernelStats
from ..runtime.context import current_context
from ..runtime.timer import PhaseTimer
from .mttkrp import symmetric_mttkrp

__all__ = ["SymmetricCPResult", "symmetric_cp_als", "cp_inner_product"]


@dataclass
class SymmetricCPResult:
    """Weights, factor, and convergence trace of symmetric CP-ALS."""

    weights: np.ndarray  # (R,) λ values
    factor: np.ndarray  # (I, R), unit-norm columns
    error_trace: List[float]
    converged: bool
    timer: PhaseTimer
    stats: KernelStats
    norm_x_squared: float

    @property
    def iterations(self) -> int:
        return len(self.error_trace)

    @property
    def relative_error(self) -> float:
        return self.error_trace[-1] if self.error_trace else 1.0


def rank_one_inner_products(
    tensor: SymmetricInput, factor: np.ndarray
) -> np.ndarray:
    """``h_r = ⟨X, u_r^{⊗N}⟩ = Σ_{i∈nz} X(i) Π_t U(i_t, r)`` — exact, sparse."""
    ucoo = _as_ucoo(tensor)
    factor = np.asarray(factor, dtype=np.float64)
    mult = ucoo.multiplicities().astype(np.float64)
    prods = np.ones((ucoo.unnz, factor.shape[1]), dtype=np.float64)
    for t in range(ucoo.order):
        prods *= factor[ucoo.indices[:, t]]
    return (mult * ucoo.values) @ prods


def cp_inner_product(
    tensor: SymmetricInput, weights: np.ndarray, factor: np.ndarray
) -> float:
    """``⟨X, X̂⟩ = Σ_r λ_r h_r`` for the symmetric CP model."""
    h = rank_one_inner_products(tensor, factor)
    return float(h @ np.asarray(weights, dtype=np.float64))


def _model_norm_squared(weights: np.ndarray, factor: np.ndarray, order: int) -> float:
    gram = factor.T @ factor
    return float(weights @ (gram**order) @ weights)


def symmetric_cp_als(
    tensor: SymmetricInput,
    rank: int,
    *,
    max_iters: int = 100,
    tol: float = 1e-8,
    init: Union[str, np.ndarray] = "random",
    seed: Optional[int] = None,
    ridge: float = 1e-10,
    timer: Optional[PhaseTimer] = None,
) -> SymmetricCPResult:
    """Symmetric CP-ALS on the symmetry-propagated MTTKRP kernel.

    Parameters
    ----------
    tensor:
        Sparse symmetric input, order ``N >= 2``.
    rank:
        CP rank ``R``.
    max_iters, tol:
        Stop when the relative error improves by less than ``tol``.
    init, seed:
        ``"random"`` (Gaussian, column-normalized) or an explicit
        ``(I, R)`` array.
    ridge:
        Tikhonov term on the ``V`` solve (ALS normal equations can be
        near-singular when columns align).
    """
    ucoo = _as_ucoo(tensor)
    if ucoo.order < 2:
        raise ValueError("CP-ALS requires order >= 2")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    rng = np.random.default_rng(seed)
    timer = timer if timer is not None else PhaseTimer()
    timer.collector = current_context().collector
    stats = KernelStats()
    order = ucoo.order

    with timer.phase("init"):
        if isinstance(init, np.ndarray):
            factor = np.asarray(init, dtype=np.float64).copy()
            if factor.shape != (ucoo.dim, rank):
                raise ValueError(f"init must be ({ucoo.dim}, {rank})")
        elif init == "random":
            factor = rng.standard_normal((ucoo.dim, rank))
        else:
            raise ValueError(f"unknown init {init!r}")
        norms = np.linalg.norm(factor, axis=0)
        norms[norms == 0] = 1.0
        factor /= norms
        weights = np.ones(rank)
        norm_x_squared = ucoo.norm_squared()
        plan = get_plan(ucoo)

    trace: List[float] = []
    converged = False
    prev_error = np.inf
    for _sweep in range(max_iters):
        # ALS direction: with the λ-scaled factor fixed on modes 2..N,
        # the unconstrained mode-1 optimum is A = M(B) V(B)† with
        # B = U diag(λ).
        scaled_factor = factor * weights[None, :]
        with timer.phase("mttkrp"):
            m = symmetric_mttkrp(ucoo, scaled_factor, stats=stats, plan=plan)
        with timer.phase("solve"):
            gram = scaled_factor.T @ scaled_factor
            v = gram ** (order - 1)
            a = np.linalg.solve(v + ridge * np.eye(rank), m.T).T  # (I, R)
            norms = np.linalg.norm(a, axis=0)
            norms[norms == 0] = 1.0
            factor = a / norms
            # Joint λ refit with the new directions (keeps signs correct
            # for even orders and makes the objective the exact optimum
            # over weights): λ = G† h, G_{rs} = (u_rᵀu_s)^N, h_r = <X, u_r^⊗N>.
            h = rank_one_inner_products(ucoo, factor)
            g = (factor.T @ factor) ** order
            weights = np.linalg.solve(g + ridge * np.eye(rank), h)
        with timer.phase("objective"):
            inner = cp_inner_product(ucoo, weights, factor)
            model = _model_norm_squared(weights, factor, order)
            residual_sq = max(norm_x_squared - 2.0 * inner + model, 0.0)
            error = float(np.sqrt(residual_sq / norm_x_squared)) if norm_x_squared else 0.0
            trace.append(error)
        if prev_error - error <= tol:
            converged = True
            break
        prev_error = error

    return SymmetricCPResult(
        weights=weights,
        factor=factor,
        error_trace=trace,
        converged=converged,
        timer=timer,
        stats=stats,
        norm_x_squared=norm_x_squared,
    )
