"""S³TTMc-SP: sparse symmetric TTM-chain with symmetry propagation.

Public entry point for the paper's first kernel (Section III): computes
``Y = X ×₂ Uᵀ … ×_N Uᵀ`` for a sparse symmetric ``X`` and returns the
partially symmetric result in compact form ``Y_p`` — intermediates and
output both store IOU entries only (Property 1).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..formats.css import CSSTensor
from ..formats.partial_sym import PartiallySymmetricTensor
from ..formats.ucoo import SparseSymmetricTensor
from ..runtime.context import ExecContext, resolve_context
from .engine import lattice_ttmc
from .plan import TTMcPlan, get_plan
from .stats import KernelStats

__all__ = ["s3ttmc"]

SymmetricInput = Union[SparseSymmetricTensor, CSSTensor]


def _as_ucoo(tensor: SymmetricInput) -> SparseSymmetricTensor:
    if isinstance(tensor, CSSTensor):
        return tensor.ucoo
    if isinstance(tensor, SparseSymmetricTensor):
        return tensor
    raise TypeError(
        f"expected SparseSymmetricTensor or CSSTensor, got {type(tensor).__name__}"
    )


def s3ttmc(
    tensor: SymmetricInput,
    factor: np.ndarray,
    *,
    memoize: str = "global",
    kernel: str = "compiled",
    stats: Optional[KernelStats] = None,
    nz_batch_size: Optional[int] = None,
    plan: Optional[TTMcPlan] = None,
    ctx: Optional[ExecContext] = None,
) -> PartiallySymmetricTensor:
    """Symmetry-propagated S³TTMc.

    Parameters
    ----------
    tensor:
        Order-``N`` sparse symmetric input (UCOO or CSS).
    factor:
        Factor matrix ``U`` of shape ``(I, R)``.
    memoize:
        Lattice memoization scope: ``"global"`` shares sub-multiset ``K``
        tensors across non-zeros (CSS-tree-style), ``"nonzero"`` recomputes
        per non-zero (matches the closed-form complexity model exactly).
    kernel:
        Engine mode: ``"compiled"`` (the default: fused exec-generated
        kernels, :mod:`repro.core.compile`) or ``"generic"`` (the
        batched-gather engine, kept as the bitwise reference that
        :mod:`repro.verify` compares against); results are bitwise
        identical. Chunk and block sizes are not options here: the
        compiled kernel sizes its chunks in bytes, and
        :func:`~repro.core.engine.lattice_ttmc` is the one place that
        varies them.
    stats:
        Optional :class:`~repro.core.stats.KernelStats` filled with exact
        flop/structure counts.
    nz_batch_size:
        Optional non-zero batching to bound intermediate memory.
    plan:
        Pre-built execution plan. When omitted, the plan is built on first
        use and memoized on the tensor (the CSS-tree analogue: structure is
        pattern-only and reused across iterations).
    ctx:
        Optional :class:`~repro.runtime.context.ExecContext` carrying the
        run's budget and trace collector (plan builds included); defaults
        to :func:`~repro.runtime.context.current_context`.

    Returns
    -------
    :class:`~repro.formats.partial_sym.PartiallySymmetricTensor`
        ``Y_p`` with ``nrows = I``, ``sym_order = N-1``, ``sym_dim = R``;
        its ``.unfolding`` is ``Y_p(1) ∈ R^{I × S_{N-1,R}}``.
    """
    ucoo = _as_ucoo(tensor)
    factor = np.asarray(factor, dtype=np.float64)
    if factor.ndim != 2 or factor.shape[0] != ucoo.dim:
        raise ValueError(
            f"factor must be ({ucoo.dim}, R), got {factor.shape}"
        )
    if ucoo.order < 2:
        raise ValueError("S³TTMc requires tensor order >= 2")
    ctx = resolve_context(ctx)
    if plan is None:
        plan = get_plan(ucoo, memoize, nz_batch_size, ctx)
    with ctx.span(
        "s3ttmc",
        kernel="symprop",
        engine=kernel,
        order=ucoo.order,
        dim=ucoo.dim,
        unnz=ucoo.unnz,
        rank=factor.shape[1],
        memoize=memoize,
    ):
        data = lattice_ttmc(
            ucoo.indices,
            ucoo.values,
            ucoo.dim,
            factor,
            intermediate="compact",
            memoize=memoize,
            kernel=kernel,
            stats=stats,
            nz_batch_size=nz_batch_size,
            plan=plan,
            ctx=ctx,
        )
    return PartiallySymmetricTensor(
        ucoo.dim, ucoo.order - 1, factor.shape[1], data
    )
