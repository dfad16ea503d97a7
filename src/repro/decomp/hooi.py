"""Sparse symmetric HOOI (Algorithm 3) with pluggable S³TTMc kernels.

Each iteration: S³TTMc, then ``U ←`` the ``R`` leading left singular
vectors of ``Y_(1)``, then the core. This module supplies that step; the
loop around it (context, checkpoints, the health watchdog, the objective)
is :mod:`repro.decomp._sweep`. Two SVD paths:

* ``svd_method="expand"`` — **faithful to the paper**: expand ``Y_p`` to the
  full ``I × R^{N-1}`` unfolding and run dense SVD. The expansion is
  budget-accounted; this is the step that makes HOOI go OOM on large
  datasets in Figure 7 (e.g. 62 K × 10 M ≈ 4.6 TB for walmart-trips).
* ``svd_method="gram"`` — our extension (ablation 5 in DESIGN.md): the left
  singular vectors are the top eigenvectors of
  ``Y_(1) Y_(1)ᵀ = Y_p(1) M Y_p(1)ᵀ`` (Property 3), an ``I × I`` problem
  that never expands ``Y``. Mathematically identical update; removes the
  memory wall at ``O(I² S_{N-1,R})`` extra flops.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Optional, Union

import numpy as np
import scipy.linalg

from ..baselines.css_ttmc import css_s3ttmc
from ..core.s3ttmc import SymmetricInput
from ..formats.partial_sym import PartiallySymmetricTensor
from ..runtime.context import ExecContext, resolve_context
from ..runtime.timer import PhaseTimer
from ..symmetry.expansion import compact_from_full
from ._sweep import Sweep, sweep
from .result import DecompositionResult

__all__ = ["hooi", "HOOI_KERNELS"]

#: Algorithm families ``hooi(kernel=...)`` accepts.
HOOI_KERNELS = ("symprop", "css")


def _leading_left_singular_vectors_expand(
    y: PartiallySymmetricTensor, rank: int, ctx: Optional[ExecContext] = None
) -> np.ndarray:
    ctx = resolve_context(ctx)
    full = y.to_full_unfolding()  # raises MemoryLimitError when too large
    try:
        u, _s, _vt = scipy.linalg.svd(full, full_matrices=False)
    finally:
        ctx.release_bytes(full.nbytes, "PartiallySymmetricTensor.full_unfolding")
    return u[:, :rank].copy()


def _leading_left_singular_vectors_gram(
    y: PartiallySymmetricTensor, rank: int, ctx: Optional[ExecContext] = None
) -> np.ndarray:
    ctx = resolve_context(ctx)
    dim = y.nrows
    ctx.request_bytes(dim * dim * 8, "HOOI Gram matrix")
    try:
        gram = y.weighted_unfolding() @ y.data.T
        _vals, vecs = scipy.linalg.eigh(gram, subset_by_index=[dim - rank, dim - 1])
    finally:
        ctx.release_bytes(dim * dim * 8, "HOOI Gram matrix")
    return vecs[:, ::-1].copy()


#: ``svd_method`` → the leading-left-singular-vector routine it runs.
_SVD_METHODS = {
    "expand": _leading_left_singular_vectors_expand,
    "gram": _leading_left_singular_vectors_gram,
}


def _step(run: Sweep, factor: np.ndarray, _a, *, kernel: str, svd_method: str):
    """One HOOI iteration: S³TTMc, the ``R`` leading left singular vectors
    of ``Y_(1)``, then the core."""
    if kernel == "css":
        # CSS-HOOI keeps the full Y_(1) and runs the SVD on it.
        with run.timer.phase("s3ttmc"):
            y_full = css_s3ttmc(
                run.ucoo,
                factor,
                memoize=run.memoize,
                stats=run.stats,
                nz_batch_size=run.nz_batch_size,
                ctx=run.ctx,
            )
        with run.timer.phase("svd"):
            u, _s, _vt = scipy.linalg.svd(y_full, full_matrices=False)
            factor = u[:, : run.rank].copy()
        with run.timer.phase("core"):
            core_data = compact_from_full(
                factor.T @ y_full, run.ucoo.order - 1, run.rank, check_symmetry=False
            )
            return factor, run.core(core_data), None
    y = run.s3ttmc(factor)
    with run.timer.phase("svd"):
        factor = _SVD_METHODS[svd_method](y, run.rank, ctx=run.ctx)
    with run.timer.phase("core"):
        return factor, y.mode1_ttm(factor), None


def hooi(
    tensor: SymmetricInput,
    rank: int,
    *,
    max_iters: int = 50,
    tol: float = 1e-8,
    init: Union[str, np.ndarray] = "random",
    seed: Optional[int] = None,
    kernel: str = "symprop",
    svd_method: str = "expand",
    memoize: str = "global",
    nz_batch_size: Optional[int] = None,
    timer: Optional[PhaseTimer] = None,
    ctx: Optional[ExecContext] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    checkpoint_every: int = 1,
    resume: bool = False,
) -> DecompositionResult:
    """Higher-Order Orthogonal Iteration for sparse symmetric tensors.

    Parameters
    ----------
    tensor:
        Sparse symmetric input (UCOO or CSS).
    rank:
        Tucker rank ``R`` (same on every mode).
    max_iters, tol:
        Stop when the objective improves by less than ``tol · ‖X‖²``
        between iterations, or after ``max_iters``.
    init, seed:
        ``"random"``, ``"hosvd"``, or an explicit ``(I, R)`` array.
    kernel:
        ``"symprop"`` (compact intermediates) or ``"css"`` (full
        intermediates — the baseline HOOI-CSS of Table II; the SVD input is
        identical either way).
    svd_method:
        ``"expand"`` (faithful) or ``"gram"`` (extension; see module doc).
    memoize, nz_batch_size:
        Forwarded to the S³TTMc kernel.
    timer:
        Optional external :class:`PhaseTimer` to fill (else a fresh one).
    ctx:
        Optional :class:`~repro.runtime.context.ExecContext` governing
        the whole run: its budget, collector, execution, plan cache, and
        default seed. ``execution="thread"`` / ``"process"`` (which
        require ``kernel="symprop"``) route every S³TTMc through a
        parallel backend (:mod:`repro.parallel.backends`) kept on the
        context across iterations, so chunk plans — and, for the process
        backend, the worker processes with their shared-memory shards —
        are reused; each worker owns a disjoint
        :class:`~repro.parallel.sharding.TensorShard`, and checkpoints
        record the shard map. ``None`` runs in the thread's active
        context (``with ctx:``), or else in an ephemeral child of the
        process default, which has no budget and no collector.
    checkpoint_dir, checkpoint_every, resume:
        Iteration checkpointing (:mod:`repro.runtime.checkpoint`). With
        ``checkpoint_dir`` set, the full sweep state — factor, core,
        convergence trace, objective bookkeeping, and a run/tensor
        fingerprint — is written atomically every ``checkpoint_every``
        iterations (and always on convergence or the final iteration).
        ``resume=True`` continues a killed run **bit-for-bit** from the
        latest checkpoint; a checkpoint from a different run
        configuration or tensor is rejected with ``ValueError``. Phase
        timers and kernel statistics restart from zero on resume (they
        are observability, not algorithm state).

    Runs are guarded by the run-level health machinery on ``ctx``
    (:mod:`repro.runtime.health`): cancellation and ``deadline_seconds``
    are checked between iterations (and between chunks inside the
    parallel backends); on a trip the last completed iteration is
    checkpointed first (when ``checkpoint_dir`` is set) so the run
    resumes bit-for-bit. A divergence/stall watchdog restores from the
    last healthy snapshot or reseeds when the objective goes non-finite
    or worsens for ``FallbackPolicy.max_unhealthy_iters`` consecutive
    iterations, raising
    :class:`~repro.runtime.health.NumericalHealthError` once
    ``max_health_recoveries`` is exhausted.
    """
    if kernel not in HOOI_KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    if svd_method not in _SVD_METHODS:
        raise ValueError(f"unknown svd_method {svd_method!r}")
    return sweep(
        partial(_step, kernel=kernel, svd_method=svd_method),
        tensor,
        rank,
        algorithm="hooi",
        options={"kernel": kernel, "svd_method": svd_method},
        max_iters=max_iters,
        tol=tol,
        init=init,
        seed=seed,
        memoize=memoize,
        nz_batch_size=nz_batch_size,
        timer=timer,
        ctx=ctx,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        resume=resume,
    )
