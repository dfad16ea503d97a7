"""Original HOQRI n-ary contraction baseline (Sun & Huang [14]).

Computes one HOQRI iteration body directly from the expanded non-zero
set, one entry at a time, with *no* intermediate tensors and no
memoization: the full core ``C_(1)``, then the update ``A = Y_(1) C_(1)ᵀ``
as, for each expanded non-zero ``(i_1, …, i_N)`` with value ``x``,

``A(i_1, :) += x · C_(1) · (U(i_2,:) ⊗ … ⊗ U(i_N,:))``.

Cost ``O(R^N · nnz) = O(R^N · N! · unnz)`` — asymptotically the worst of the
kernel family (Table II), but with the smallest working set. We vectorize
over chunks of expanded non-zeros while preserving the per-entry flop count.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core._segment import scatter_add_rows
from ..core.stats import KernelStats
from ..formats.ucoo import SparseSymmetricTensor
from ..runtime.context import ExecContext, resolve_context
from ..symmetry.permutations import expand_iou

__all__ = ["nary_hoqri_step"]

_DEFAULT_CHUNK = 8192


def nary_hoqri_step(
    tensor: SparseSymmetricTensor,
    factor: np.ndarray,
    *,
    stats: Optional[KernelStats] = None,
    chunk: int = _DEFAULT_CHUNK,
    ctx: Optional[ExecContext] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One full HOQRI iteration body in the original intermediate-free style.

    Two passes over the expanded non-zeros, each rebuilding the per-entry
    Kronecker chains (no memoization, as in [14]):

    1. ``C_(1) = Σ x · U(i_1,:)ᵀ ⊗ (⊗_{t≥2} U(i_t,:))`` — the full core;
    2. ``A(i_1,:) += x · C_(1) · (⊗_{t≥2} U(i_t,:))``.

    Returns ``(A, C_(1))`` with ``A ∈ R^{I×R}`` and ``C_(1) ∈ R^{R×R^{N-1}}``.
    """
    ctx = resolve_context(ctx)
    factor = np.asarray(factor, dtype=np.float64)
    order = tensor.order
    rank = factor.shape[1]
    if factor.shape[0] != tensor.dim:
        raise ValueError(f"factor must be ({tensor.dim}, R)")
    width = rank ** (order - 1)
    exp_idx, exp_val, _ = expand_iou(tensor.indices, tensor.values)
    ctx.request_bytes(exp_idx.nbytes + exp_val.nbytes, "n-ary expanded nonzeros")
    try:
        ctx.request_bytes(rank * width * 8, "n-ary full core")
    except BaseException:
        ctx.release_bytes(exp_idx.nbytes + exp_val.nbytes, "n-ary expanded nonzeros")
        raise
    nnz = exp_val.shape[0]

    def chains(start: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        block = exp_idx[start:stop]
        vals = exp_val[start:stop]
        w = factor[block[:, 1]]
        for t in range(2, order):
            w = (w[:, :, None] * factor[block[:, t]][:, None, :]).reshape(
                block.shape[0], -1
            )
        if stats is not None:
            for t in range(2, order):
                stats.level_flops[t] = stats.level_flops.get(t, 0) + block.shape[0] * rank**t
        return block, vals, w

    try:
        c1 = np.zeros((rank, width), dtype=np.float64)
        step = max(1, chunk)
        for start in range(0, nnz, step):
            stop = min(start + step, nnz)
            block, vals, w = chains(start, stop)
            c1 += factor[block[:, 0]].T @ (w * vals[:, None])
            if stats is not None:
                stats.add_gemm(rank, width, stop - start)

        a = np.zeros((tensor.dim, rank), dtype=np.float64)
        for start in range(0, nnz, step):
            stop = min(start + step, nnz)
            block, vals, w = chains(start, stop)
            contrib = (w @ c1.T) * vals[:, None]
            scatter_add_rows(a, block[:, 0], contrib)
            if stats is not None:
                stats.add_gemm(stop - start, rank, width)
    finally:
        # The full-core bytes are released here too: the returned ``c1`` is
        # immediately compacted by the HOQRI driver, so keeping the request
        # open would leak one core's worth of budget per iteration.
        ctx.release_bytes(rank * width * 8, "n-ary full core")
        ctx.release_bytes(exp_idx.nbytes + exp_val.nbytes, "n-ary expanded nonzeros")
    if stats is not None:
        stats.output_bytes = a.nbytes
    return a, c1
