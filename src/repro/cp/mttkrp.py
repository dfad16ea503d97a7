"""Sparse symmetric MTTKRP via symmetry propagation.

The CP analogue of S³TTMc: for a sparse symmetric ``X`` and a shared
factor ``U``, the matricized-tensor-times-Khatri-Rao product is

``M(k, r) = Σ_{i∈nz(X), i_1=k} X(i) · Π_{t≥2} U(i_t, r)``.

Grouped by IOU non-zero, each distinct ``k ∈ i`` receives
``X(i) · (#orderings of i∖k) · Π_{t∈i∖k} U(t, r)`` — exactly the
sub-multiset lattice recurrence with the *elementwise* intermediate
layout (``K_m[r] = Σ_v U[v,r]·K_{m−v}[r]`` — ``R`` entries per level,
never ``R^l``). This is the paper's propagated-symmetry idea carried to
CP decomposition, as its conclusion suggests; level-``l`` complexity is
``(2l−1)·C(N,l)·R·unnz``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.engine import DEFAULT_BLOCK_BYTES, lattice_ttmc
from ..core.plan import TTMcPlan, get_plan
from ..core.s3ttmc import SymmetricInput, _as_ucoo
from ..core.stats import KernelStats

__all__ = ["symmetric_mttkrp"]


def symmetric_mttkrp(
    tensor: SymmetricInput,
    factor: np.ndarray,
    *,
    memoize: str = "global",
    stats: Optional[KernelStats] = None,
    nz_batch_size: Optional[int] = None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
    plan: Optional[TTMcPlan] = None,
) -> np.ndarray:
    """Symmetry-propagated sparse symmetric MTTKRP, ``(I, R)`` output.

    Parameters mirror :func:`repro.core.s3ttmc.s3ttmc`, plus
    ``block_bytes``, the generic engine's transient gather-buffer bound
    (the result does not depend on it). The execution plan is shared
    with S³TTMc (same lattice, different layout), so Tucker and CP runs
    on the same tensor reuse one structure.
    """
    ucoo = _as_ucoo(tensor)
    factor = np.asarray(factor, dtype=np.float64)
    if factor.ndim != 2 or factor.shape[0] != ucoo.dim:
        raise ValueError(f"factor must be ({ucoo.dim}, R), got {factor.shape}")
    if ucoo.order < 2:
        raise ValueError("MTTKRP requires tensor order >= 2")
    if plan is None:
        plan = get_plan(ucoo, memoize, nz_batch_size)
    return lattice_ttmc(
        ucoo.indices,
        ucoo.values,
        ucoo.dim,
        factor,
        intermediate="cp",
        memoize=memoize,
        stats=stats,
        nz_batch_size=nz_batch_size,
        block_bytes=block_bytes,
        plan=plan,
    )
