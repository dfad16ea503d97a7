"""S³TTMcTC-SP: TTM chain times core, fully symmetry-aware (Algorithm 2).

Computes the HOQRI update matrix ``A = Y_(1) C_(1)ᵀ ∈ R^{I×R}`` without ever
expanding ``Y`` or ``C``:

1. ``Y_p = S³TTMc(X, U)``                      (optimized kernel, Property 1)
2. ``C_p(1) = Uᵀ Y_p(1)``                      (Property 2 — plain GEMM)
3. ``A = Y_p(1) · M · C_p(1)ᵀ``                (Property 3 — ``M`` diagonal)

Step 3 scales the *core* (the smaller operand) by the multiplicity vector
``p`` and finishes with one GEMM, exactly as Section IV-C prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..formats.partial_sym import PartiallySymmetricTensor
from ..runtime.context import ExecContext, resolve_context
from .s3ttmc import SymmetricInput, s3ttmc
from .stats import KernelStats

__all__ = ["TTMcTCResult", "s3ttmc_tc", "times_core"]


@dataclass
class TTMcTCResult:
    """Outputs of one S³TTMcTC invocation.

    Attributes
    ----------
    a:
        The ``(I, R)`` matrix handed to QR in HOQRI.
    y:
        The compact ``Y_p`` (kept in memory deliberately — the paper keeps
        it to avoid recomputation, unlike the original HOQRI).
    core:
        The core tensor in partially symmetric form ``C_p``
        (``nrows = R``); its full Frobenius norm drives the objective.
    stats:
        Kernel statistics if requested.
    """

    a: np.ndarray
    y: PartiallySymmetricTensor
    core: PartiallySymmetricTensor
    stats: Optional[KernelStats]


def times_core(
    y: PartiallySymmetricTensor,
    factor: np.ndarray,
    *,
    stats: Optional[KernelStats] = None,
    ctx: Optional[ExecContext] = None,
) -> TTMcTCResult:
    """Steps 2–3 of Algorithm 2, given an already-computed ``Y_p``.

    Split out so HOQRI can reuse one S³TTMc result for both the core update
    and the ``A`` matrix.
    """
    ctx = resolve_context(ctx)
    factor = np.asarray(factor, dtype=np.float64)
    if factor.shape != (y.nrows, y.sym_dim):
        raise ValueError(
            f"factor must be ({y.nrows}, {y.sym_dim}), got {factor.shape}"
        )
    with ctx.span(
        "times_core", nrows=y.nrows, rank=y.sym_dim, sym_size=y.sym_size
    ):
        core = y.mode1_ttm(factor)  # C_p(1) = Uᵀ Y_p(1)
        p = core.multiplicities()
        scaled_core_t = core.data.T * p[:, None]  # M C_p(1)ᵀ, (S, R)
        a = y.data @ scaled_core_t  # Y_p(1) M C_p(1)ᵀ, (I, R)
    if stats is not None:
        s = y.sym_size
        rank = y.sym_dim
        stats.add_gemm(rank, s, y.nrows)  # Uᵀ Y_p(1)
        stats.add_scale(s * rank)  # diagonal M
        stats.add_gemm(y.nrows, rank, s)  # Y_p(1) (M C_pᵀ)
    return TTMcTCResult(a=a, y=y, core=core, stats=stats)


def s3ttmc_tc(
    tensor: SymmetricInput,
    factor: np.ndarray,
    *,
    memoize: str = "global",
    kernel: str = "compiled",
    stats: Optional[KernelStats] = None,
    nz_batch_size: Optional[int] = None,
    plan=None,
    ctx: Optional[ExecContext] = None,
) -> TTMcTCResult:
    """Full S³TTMcTC-SP: S³TTMc followed by the two Property-2/3 GEMMs.

    See :func:`repro.core.s3ttmc.s3ttmc` for the shared parameters
    (including the ``kernel`` engine mode); ``ctx`` carries the run's
    budget/collector (ambient when ``None``).
    """
    ctx = resolve_context(ctx)
    y = s3ttmc(
        tensor,
        factor,
        memoize=memoize,
        kernel=kernel,
        stats=stats,
        nz_batch_size=nz_batch_size,
        plan=plan,
        ctx=ctx,
    )
    return times_core(y, np.asarray(factor, dtype=np.float64), stats=stats, ctx=ctx)
