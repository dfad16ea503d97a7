"""Factor initialization: symmetric HOSVD and random orthonormal starts.

Symmetric HOSVD (Section V) takes the ``R`` leading left singular vectors
of the mode-1 unfolding ``X_(1)``. We compute them via the Gram matrix
``G = X_(1) X_(1)ᵀ ∈ R^{I×I}``, assembled sparsely: group expanded
non-zeros by their mode-2..N suffix, view ``X_(1)`` as an ``I × (#distinct
suffixes)`` sparse matrix, and form ``G`` with one sparse GEMM. The
expansion and the dense ``I×I`` Gram are budget-accounted — on large
tensors this is exactly the step the paper could not run (footnote 5),
falling back to random initialization.
"""

from __future__ import annotations

import numpy as np

from ..formats.ucoo import SparseSymmetricTensor
from ..runtime.context import ExecContext, resolve_context
from ..symmetry.permutations import expand_iou

__all__ = ["random_init", "hosvd_init", "initialize"]


def random_init(
    dim: int, rank: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Random orthonormal ``(dim, rank)`` factor (QR of a Gaussian)."""
    if rank > dim:
        raise ValueError(f"rank {rank} exceeds dimension {dim}")
    rng = rng or np.random.default_rng()
    gauss = rng.standard_normal((dim, rank))
    q, r = np.linalg.qr(gauss)
    # Fix signs for determinism across LAPACK builds.
    q *= np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))[None, :]
    return q


def _sparse_unfolding(
    tensor: SparseSymmetricTensor, ctx: ExecContext | None = None
) -> "scipy.sparse.csr_matrix":
    """``X_(1)`` as a sparse matrix with deduplicated suffix columns."""
    import scipy.sparse as sp

    ctx = resolve_context(ctx)
    dim = tensor.dim
    nnz = tensor.nnz
    ctx.request_bytes(nnz * tensor.order * 8 + nnz * 8, "HOSVD expansion")
    try:
        exp_idx, exp_val, _ = expand_iou(tensor.indices, tensor.values)
        if tensor.order == 1:
            cols = np.zeros(exp_idx.shape[0], dtype=np.int64)
            n_cols = 1
        else:
            suffixes = exp_idx[:, 1:]
            _, cols = np.unique(suffixes, axis=0, return_inverse=True)
            n_cols = int(cols.max()) + 1 if cols.size else 0
        return sp.csr_matrix(
            (exp_val, (exp_idx[:, 0], cols)), shape=(dim, max(n_cols, 1))
        )
    finally:
        ctx.release_bytes(nnz * tensor.order * 8 + nnz * 8, "HOSVD expansion")


def hosvd_init(
    tensor: SparseSymmetricTensor,
    rank: int,
    *,
    method: str = "gram",
    n_power_iters: int = 4,
    oversample: int = 8,
    seed: int = 0,
    ctx: ExecContext | None = None,
) -> np.ndarray:
    """Leading left singular vectors of ``X_(1)``.

    ``method="gram"`` (faithful): dense ``I×I`` Gram + eigendecomposition —
    the step the paper could not run on large tensors (footnote 5); the
    ``I²`` allocation is budget-accounted.

    ``method="randomized"`` (extension, after the randomized Tucker line of
    work the paper cites [45], [47]): a randomized range finder with power
    iterations on the *sparse* unfolding — ``O(I·(R+p))`` memory instead of
    ``I²``, making HOSVD initialization feasible exactly where the paper
    had to fall back to random starts.
    """
    if rank > tensor.dim:
        raise ValueError(f"rank {rank} exceeds dimension {tensor.dim}")
    if method not in ("gram", "randomized"):
        raise ValueError(f"unknown HOSVD method {method!r}")
    ctx = resolve_context(ctx)
    dim = tensor.dim
    x1 = _sparse_unfolding(tensor, ctx)
    if method == "gram":
        import scipy.linalg

        ctx.request_bytes(dim * dim * 8, "HOSVD Gram matrix")
        try:
            gram = (x1 @ x1.T).toarray()
            # Top-`rank` eigenvectors of the symmetric PSD Gram = left
            # singular vectors of X_(1).
            _, vecs = scipy.linalg.eigh(
                gram, subset_by_index=[dim - rank, dim - 1]
            )
        finally:
            ctx.release_bytes(dim * dim * 8, "HOSVD Gram matrix")
        u = vecs[:, ::-1].copy()  # descending eigenvalue order
    else:
        rng = np.random.default_rng(seed)
        k = min(rank + max(oversample, 0), dim)
        ctx.request_bytes(dim * k * 8 * 2, "HOSVD randomized sketch")
        try:
            sketch = x1 @ (x1.T @ rng.standard_normal((dim, k)))
            q, _ = np.linalg.qr(sketch)
            for _ in range(max(n_power_iters, 0)):
                q, _ = np.linalg.qr(x1 @ (x1.T @ q))
            # Rayleigh-Ritz on the Gram restricted to range(q).
            small = q.T @ (x1 @ (x1.T @ q))
            vals, vecs = np.linalg.eigh(small)
            top = np.argsort(vals)[::-1][:rank]
            u = q @ vecs[:, top]
        finally:
            ctx.release_bytes(dim * k * 8 * 2, "HOSVD randomized sketch")
    # Deterministic sign convention: largest-magnitude entry positive.
    peaks = np.abs(u).argmax(axis=0)
    u *= np.sign(u[peaks, np.arange(rank)] + (u[peaks, np.arange(rank)] == 0))
    return np.ascontiguousarray(u)


def initialize(
    tensor: SparseSymmetricTensor,
    rank: int,
    init: str | np.ndarray = "random",
    rng: np.random.Generator | None = None,
    *,
    ctx: ExecContext | None = None,
) -> np.ndarray:
    """Resolve an ``init`` spec: ``"random"``, ``"hosvd"`` or an explicit array."""
    if isinstance(init, np.ndarray):
        factor = np.asarray(init, dtype=np.float64)
        if factor.shape != (tensor.dim, rank):
            raise ValueError(
                f"init factor must be ({tensor.dim}, {rank}), got {factor.shape}"
            )
        return factor.copy()
    if init == "random":
        return random_init(tensor.dim, rank, rng)
    if init == "hosvd":
        return hosvd_init(tensor, rank, ctx=ctx)
    raise ValueError(f"unknown init {init!r}")
