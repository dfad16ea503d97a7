"""General sparse TTMc: mode-n chains with per-mode factors.

The SPLATT baseline in :mod:`repro.baselines.splatt` is the symmetric
special case (same factor everywhere, mode-0 output). This module is the
full general substrate — the operation SPLATT actually implements for
arbitrary sparse tensors: ``Y_(n) = X ×_{m≠n} U_mᵀ`` with a *different*
factor per mode, computed over a CSF tree whose root is mode ``n``.

It exists for two reasons: (1) the reproduction's baselines should be
honest instances of general tools, and (2) it lets the test suite verify
the symmetric specialization against the general machinery (same factors
→ same result, any root mode).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core._segment import segment_sum_by_ptr
from ..core.stats import KernelStats
from ..formats.coo import COOTensor
from ..formats.csf import CSFTensor
from ..runtime.context import current_context

__all__ = ["general_ttmc", "csf_ttmc_multi"]


def csf_ttmc_multi(
    csf: CSFTensor,
    factors: Sequence[np.ndarray],
    *,
    stats: Optional[KernelStats] = None,
) -> np.ndarray:
    """TTMc over all modes except the CSF root mode, per-mode factors.

    ``factors`` is indexed by *original* mode id; ``factors[root]`` is
    ignored. Returns the matricized result
    ``(dim, Π_{m≠root} R_m)`` with columns ordered by the CSF mode order
    (second CSF level slowest), matching the Kronecker flattening of the
    chain evaluated in that order.
    """
    order = csf.order
    if len(factors) != order:
        raise ValueError(f"need {order} factors, got {len(factors)}")
    mats = [np.asarray(f, dtype=np.float64) for f in factors]
    for mode, mat in enumerate(mats):
        if mat.ndim != 2 or mat.shape[0] != csf.dim:
            raise ValueError(f"factor {mode} must be ({csf.dim}, R_m)")
    trie = csf.trie
    ctx = current_context()
    # Budget requests currently held; all given back if a later request
    # raises, so an over-limit chain leaves the budget exactly as found.
    held: list[tuple[int, str]] = []

    def _request(nbytes: int, label: str) -> None:
        ctx.request_bytes(nbytes, label)
        held.append((nbytes, label))

    def _release(nbytes: int, label: str) -> None:
        ctx.release_bytes(nbytes, label)
        held.remove((nbytes, label))

    try:
        # CSF level d (0-based) carries original mode csf.mode_order[d].
        payload = segment_sum_by_ptr(csf.values[:, None], trie.child_ptr[order - 1])
        label = f"general CSF payload depth {order}"
        _request(payload.nbytes, label)
        for depth in range(order - 1, 0, -1):
            mode = csf.mode_order[depth]
            factor = mats[mode]
            rank = factor.shape[1]
            child_values = trie.values[depth]
            n_children = child_values.shape[0]
            width = payload.shape[1]
            contrib = (factor[child_values][:, :, None] * payload[:, None, :]).reshape(
                n_children, rank * width
            )
            if stats is not None:
                stats.add_level(order - depth + 1, n_children, n_children, rank * width)
            _release(payload.nbytes, label)
            payload = segment_sum_by_ptr(contrib, trie.child_ptr[depth - 1])
            label = f"general CSF payload depth {depth}"
            _request(payload.nbytes, label)

        out_cols = payload.shape[1]
        _request(csf.dim * out_cols * 8, "general Y full")
        out = np.zeros((csf.dim, out_cols), dtype=np.float64)
        out[trie.values[0]] = payload
        _release(payload.nbytes, label)
        # Release-on-handoff: ownership of the returned Y transfers to the
        # caller, so repeated calls under one budget don't drift.
        _release(csf.dim * out_cols * 8, "general Y full")
    except BaseException:
        for nbytes, label in held:
            ctx.release_bytes(nbytes, label)
        raise
    if stats is not None:
        stats.output_bytes = out.nbytes
    return out


def general_ttmc(
    tensor: COOTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    *,
    stats: Optional[KernelStats] = None,
) -> np.ndarray:
    """``Y_(mode) = X ×_{m≠mode} U_mᵀ`` for a general COO sparse tensor.

    Builds (or reuses via the tensor-attached cache) the CSF tree rooted at
    ``mode``. The returned matrix has columns linearized over the remaining
    modes *in ascending original-mode order* (row-major), independent of
    the internal CSF ordering, so it matches
    :func:`repro.formats.dense.unfold` of the dense chain.
    """
    order = tensor.order
    if not 0 <= mode < order:
        raise ValueError(f"mode {mode} out of range")
    cache = getattr(tensor, "_csf_cache", None)
    if cache is None:
        cache = {}
        setattr(tensor, "_csf_cache", cache)
    csf = cache.get(mode)
    if csf is None:
        rest = tuple(m for m in range(order) if m != mode)
        csf = CSFTensor(tensor, (mode,) + rest)
        cache[mode] = csf
    result = csf_ttmc_multi(csf, factors, stats=stats)
    # CSF mode order after the root is ascending already; nothing to permute.
    return result
