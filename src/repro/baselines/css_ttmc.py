"""S³TTMc-CSS baseline: IOU input, *full* dense intermediates.

The state of the art before SymProp (Shivakumar et al. [11], [12]): the
sparse input's symmetry is exploited (IOU non-zeros, sub-multiset
memoization), but every intermediate ``K`` tensor and the output ``Y`` are
stored fully — ``R**l`` and ``I × R**(N-1)`` entries. Identical lattice,
identical recurrence, different layout; the runtime and memory gap to
:func:`repro.core.s3ttmc.s3ttmc` *is* the paper's contribution.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.engine import DEFAULT_BLOCK_BYTES, lattice_ttmc
from ..core.plan import TTMcPlan, get_plan
from ..core.s3ttmc import SymmetricInput, _as_ucoo
from ..core.stats import KernelStats
from ..runtime.context import ExecContext, resolve_context

__all__ = ["css_s3ttmc", "css_s3ttmc_tc"]


def css_s3ttmc(
    tensor: SymmetricInput,
    factor: np.ndarray,
    *,
    memoize: str = "global",
    stats: Optional[KernelStats] = None,
    nz_batch_size: Optional[int] = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    plan: Optional[TTMcPlan] = None,
    ctx: Optional[ExecContext] = None,
) -> np.ndarray:
    """CSS-format S³TTMc with full intermediates.

    Returns the full matricized ``Y_(1) ∈ R^{I × R^{N-1}}`` (row-major
    column layout matching Eq. 3's Kronecker flattening).
    """
    ctx = resolve_context(ctx)
    ucoo = _as_ucoo(tensor)
    factor = np.asarray(factor, dtype=np.float64)
    if plan is None:
        plan = get_plan(ucoo, memoize, nz_batch_size, ctx)
    return lattice_ttmc(
        ucoo.indices,
        ucoo.values,
        ucoo.dim,
        factor,
        intermediate="full",
        memoize=memoize,
        stats=stats,
        nz_batch_size=nz_batch_size,
        block_bytes=block_bytes,
        plan=plan,
        ctx=ctx,
    )


def css_s3ttmc_tc(
    tensor: SymmetricInput,
    factor: np.ndarray,
    *,
    memoize: str = "global",
    stats: Optional[KernelStats] = None,
    nz_batch_size: Optional[int] = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    ctx: Optional[ExecContext] = None,
) -> np.ndarray:
    """TTMcTC on the CSS baseline: full ``Y_(1)``, full core, two GEMMs.

    Provided for completeness of the baseline family; the paper's
    S³TTMcTC comparison is against the symmetry-aware Algorithm 2.
    Returns ``A ∈ R^{I × R}``.
    """
    factor = np.asarray(factor, dtype=np.float64)
    y1 = css_s3ttmc(
        tensor,
        factor,
        memoize=memoize,
        stats=stats,
        nz_batch_size=nz_batch_size,
        block_bytes=block_bytes,
        ctx=ctx,
    )
    c1 = factor.T @ y1
    if stats is not None:
        stats.add_gemm(factor.shape[1], y1.shape[1], y1.shape[0])
        stats.add_gemm(y1.shape[0], factor.shape[1], y1.shape[1])
    return y1 @ c1.T
