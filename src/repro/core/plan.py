"""Reusable S³TTMc execution plans (the CSS-tree analogue).

The sub-multiset lattice depends only on the sparsity *pattern*, never on
the factor matrix or values — just like the paper's CSS tree, which is
built once when the tensor is loaded and reused across every kernel call
and every Tucker iteration. A :class:`TTMcPlan` captures the lattice (per
non-zero batch) so repeated kernel invocations pay only the numeric work;
:func:`get_plan` memoizes plans on the tensor object.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..formats.ucoo import SparseSymmetricTensor
from ..runtime.context import ExecContext
from .lattice import Lattice, build_lattice

__all__ = [
    "TTMcPlan",
    "build_plan",
    "get_plan",
    "pattern_fingerprint",
    "content_fingerprint",
]

_CACHE_ATTR = "_s3ttmc_plan_cache"


def pattern_fingerprint(indices: np.ndarray) -> int:
    """Stable fingerprint of an IOU index pattern (CRC-32 of the raw bytes).

    Plans are pattern-only, so ``(unnz, order, fingerprint)`` identifies
    the pattern a plan was built for; :func:`repro.core.engine.lattice_ttmc`
    re-derives the fingerprint on use to reject stale plans. CRC-32 runs at
    multiple GB/s, far below the kernel's per-non-zero cost.
    """
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    return zlib.crc32(indices)


def content_fingerprint(tensor: SparseSymmetricTensor) -> str:
    """Full content fingerprint of a tensor: dims, order, indices, values.

    :func:`pattern_fingerprint` deliberately ignores values — plans are
    pattern-only, and two tensors with identical sparsity *should* share
    a plan. A **result** cache must not make that identification: two
    tensors with the same pattern but different values are different
    inputs. This digest (BLAKE2b over the shape metadata and the raw
    index/value bytes) is the key the serve layer's result cache uses;
    collisions are cryptographically negligible, so content-identical
    submissions — and only those — alias.
    """
    indices = np.ascontiguousarray(tensor.indices, dtype=np.int64)
    values = np.ascontiguousarray(tensor.values, dtype=np.float64)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(
        f"order={int(tensor.order)};dim={int(tensor.dim)};"
        f"unnz={indices.shape[0]}".encode()
    )
    digest.update(indices.tobytes())
    digest.update(values.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class TTMcPlan:
    """Lattices for each non-zero batch of one tensor pattern.

    ``unnz`` and ``fingerprint`` stamp the pattern the plan was built for
    (``-1`` on legacy instances built before stamping existed) so reuse
    against different indices fails loudly instead of producing garbage.
    """

    order: int
    memoize: str
    nz_batch_size: Optional[int]
    batches: Tuple[Tuple[int, int, Lattice], ...]  # (start, stop, lattice)
    unnz: int = -1
    fingerprint: int = -1

    @property
    def total_edges(self) -> int:
        return sum(lat.total_edges for _s, _e, lat in self.batches)

    def matches(self, indices: np.ndarray) -> bool:
        """Whether this plan was built for exactly this index pattern."""
        if indices.ndim != 2 or indices.shape[1] != self.order:
            return False
        if self.unnz < 0:  # legacy unstamped plan: order check only
            return True
        return (
            indices.shape[0] == self.unnz
            and pattern_fingerprint(indices) == self.fingerprint
        )


def build_plan(
    indices: np.ndarray,
    memoize: str = "global",
    nz_batch_size: Optional[int] = None,
    ctx: Optional[ExecContext] = None,
) -> TTMcPlan:
    """Build lattices for every batch of the given IOU pattern, declaring
    each level's transients against ``ctx``'s budget."""
    indices = np.asarray(indices, dtype=np.int64)
    unnz, order = indices.shape
    batch = max(1, unnz) if not nz_batch_size else max(1, int(nz_batch_size))
    batches = []
    for start in range(0, max(unnz, 1), batch):
        stop = min(start + batch, unnz)
        if start >= stop:
            break
        lattice = build_lattice(indices[start:stop], memoize, ctx=ctx)
        batches.append((start, stop, lattice))
    return TTMcPlan(
        order=order,
        memoize=memoize,
        nz_batch_size=nz_batch_size,
        batches=tuple(batches),
        unnz=unnz,
        fingerprint=pattern_fingerprint(indices),
    )


def get_plan(
    tensor: SparseSymmetricTensor,
    memoize: str = "global",
    nz_batch_size: Optional[int] = None,
    ctx: Optional[ExecContext] = None,
) -> TTMcPlan:
    """Plan for ``tensor``, memoized on the tensor instance.

    The cache key is ``(memoize, nz_batch_size)``; the pattern of a
    :class:`SparseSymmetricTensor` is immutable by convention. A build
    on a miss is accounted against ``ctx`` (see :func:`build_plan`).
    """
    cache = getattr(tensor, _CACHE_ATTR, None)
    if cache is None:
        cache = {}
        setattr(tensor, _CACHE_ATTR, cache)
    key = (memoize, nz_batch_size)
    plan = cache.get(key)
    if plan is None:
        plan = build_plan(tensor.indices, memoize, nz_batch_size, ctx)
        cache[key] = plan
    return plan
