"""Reconstruction utilities for symmetric Tucker results.

The decomposition algorithms never materialize ``X̂ = C ×₁ Uᵀ … ×_N Uᵀ``;
these helpers evaluate it — densely for small problems, or *pointwise* at
arbitrary coordinate sets for large ones (the scalable way to inspect
residuals, score link predictions on hypergraphs, etc.).

Pointwise evaluation uses the compact core directly:
``X̂(i) = Σ_{iou j} p_j · C_sym[j] · Π_a U(i_a, j_a)`` — but summing over
orderings of ``j`` is exactly a chain of per-mode contractions, so we
evaluate ``w = ⊗_a U(i_a,:)`` chunk-wise and dot with the expanded core
row, reusing the multiplicity machinery.
"""

from __future__ import annotations

import numpy as np

from ..formats.dense import ttm
from ..runtime.context import current_context
from .result import DecompositionResult

__all__ = ["reconstruct_dense", "reconstruct_at"]


def reconstruct_dense(result: DecompositionResult) -> np.ndarray:
    """Full dense ``X̂`` (order-``N`` ndarray). Small problems only.

    Allocation ``I**N`` doubles, budget-accounted.
    """
    core = result.core
    factor = result.factor
    order = core.order
    dim = factor.shape[0]
    current_context().request_bytes(dim**order * 8, "dense reconstruction")
    recon = core.to_full_tensor()
    for mode in range(order):
        recon = ttm(recon, factor.T, mode)
    return recon


def reconstruct_at(
    result: DecompositionResult,
    indices: np.ndarray,
    *,
    chunk: int = 4096,
) -> np.ndarray:
    """Evaluate ``X̂`` at arbitrary coordinates, ``(n, order)`` → ``(n,)``.

    Indices need not be sorted (``X̂`` is symmetric). Cost per point is
    ``O(N·R + R^{N-1})`` after a one-time core expansion.
    """
    core = result.core
    factor = np.asarray(result.factor, dtype=np.float64)
    order = core.order
    rank = core.sym_dim
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 2 or indices.shape[1] != order:
        raise ValueError(f"indices must be (n, {order})")
    # Full core unfolding C_(1): (R, R^{N-1}) — modest for low-rank cores.
    c1 = core.to_full_unfolding()
    n = indices.shape[0]
    out = np.empty(n, dtype=np.float64)
    step = max(1, chunk)
    for start in range(0, n, step):
        stop = min(start + step, n)
        block = indices[start:stop]
        w = factor[block[:, 1]]
        for t in range(2, order):
            w = (w[:, :, None] * factor[block[:, t]][:, None, :]).reshape(
                block.shape[0], -1
            )
        # X̂(i) = U(i_1,:) · C_(1) · (⊗_{t≥2} U(i_t,:))
        out[start:stop] = np.einsum("nr,nr->n", factor[block[:, 0]], w @ c1.T)
    return out
