"""Sparse symmetric HOOI (Algorithm 3) with pluggable S³TTMc kernels.

Each iteration: S³TTMc, then ``U ←`` the ``R`` leading left singular
vectors of ``Y_(1)``, then the core. This module supplies that step; the
loop around it (context, checkpoints, the health watchdog, the objective)
is :mod:`repro.decomp._sweep`. Two SVD paths:

* ``svd_method="expand"`` — **faithful to the paper**: expand ``Y_p`` to the
  full ``I × R^{N-1}`` unfolding and run dense SVD. The expansion is
  budget-accounted; this is the step that makes HOOI go OOM on large
  datasets in Figure 7 (e.g. 62 K × 10 M ≈ 4.6 TB for walmart-trips).
* ``svd_method="compact"`` — our extension (ablation 5 in DESIGN.md): by
  Property 3, ``Y_(1) Y_(1)ᵀ = Y_p(1) diag(p) Y_p(1)ᵀ``, so ``Y_(1)`` and
  the ``I × S_{N-1,R}`` operand ``Y_p(1) diag(√p)`` have the same left
  singular vectors and singular values. A thin SVD of that operand gives
  the same update without ever expanding ``Y``.

Both paths fix each singular vector's sign the same way (its
largest-magnitude entry positive), so their factors agree to rounding.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..baselines.css_ttmc import css_s3ttmc
from ..core.s3ttmc import SymmetricInput
from ..formats.partial_sym import PartiallySymmetricTensor
from ..runtime.checkpoint import CheckpointState
from ..runtime.context import ExecContext, resolve_context
from ..runtime.timer import PhaseTimer
from ..symmetry.expansion import compact_from_full
from ._sweep import Sweep, sweep
from .result import DecompositionResult

__all__ = ["hooi", "HOOI_KERNELS", "HOOI_SVD_METHODS"]

#: Algorithm families ``hooi(kernel=...)`` accepts.
HOOI_KERNELS = ("symprop", "css")


def _sign_fixed(u: np.ndarray, rank: int) -> np.ndarray:
    """The first ``rank`` columns of ``u``, each flipped so that its
    largest-magnitude entry is positive."""
    factor = u[:, :rank].copy()
    peaks = factor[np.argmax(np.abs(factor), axis=0), np.arange(rank)]
    factor *= np.where(peaks < 0, -1.0, 1.0)
    return factor


def _left_singular_vectors(a: np.ndarray, *, overwrite_a: bool = False) -> np.ndarray:
    """``U`` of the thin SVD of ``a`` (scipy loads on the first HOOI SVD)."""
    import scipy.linalg

    return scipy.linalg.svd(a, full_matrices=False, overwrite_a=overwrite_a)[0]


def _leading_left_singular_vectors_expand(
    y: PartiallySymmetricTensor, rank: int, ctx: Optional[ExecContext] = None
) -> np.ndarray:
    ctx = resolve_context(ctx)
    full = y.to_full_unfolding()  # raises MemoryLimitError when too large
    try:
        u = _left_singular_vectors(full)
    finally:
        ctx.release_bytes(full.nbytes, "PartiallySymmetricTensor.full_unfolding")
    return _sign_fixed(u, rank)


def _leading_left_singular_vectors_compact(
    y: PartiallySymmetricTensor, rank: int, ctx: Optional[ExecContext] = None
) -> np.ndarray:
    ctx = resolve_context(ctx)
    rows, cols = y.data.shape
    thin = min(rows, cols)
    # The operand and the thin SVD's U and Vᵀ.
    nbytes = (rows * cols + rows * thin + thin * cols) * 8
    ctx.request_bytes(nbytes, "HOOI compact SVD")
    try:
        operand = y.data * np.sqrt(y.multiplicities())
        u = _left_singular_vectors(operand, overwrite_a=True)
        return _sign_fixed(u, rank)
    finally:
        ctx.release_bytes(nbytes, "HOOI compact SVD")


#: ``svd_method`` → the leading-left-singular-vector routine it runs.
_SVD_METHODS = {
    "expand": _leading_left_singular_vectors_expand,
    "compact": _leading_left_singular_vectors_compact,
}

#: ``svd_method`` values ``hooi`` accepts.
HOOI_SVD_METHODS = tuple(_SVD_METHODS)


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
            u = _left_singular_vectors(y_full)
            factor = _sign_fixed(u, run.rank)
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
    resume: Union[bool, CheckpointState] = False,
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
        ``"expand"`` (faithful) or ``"compact"`` (extension; see module
        doc). ``kernel="css"`` holds the full ``Y_(1)`` and always runs
        its SVD, so it runs and records ``"expand"`` for either value.
    memoize, nz_batch_size:
        Forwarded to the S³TTMc kernel.
    timer:
        Optional external :class:`PhaseTimer` to fill (else a fresh one).
    ctx:
        Optional :class:`~repro.runtime.context.ExecContext` governing
        the whole run: its budget, collector, execution, plan cache, and
        default seed. ``execution="process"`` (which requires
        ``kernel="symprop"``) routes every S³TTMc through the process
        backend (:mod:`repro.parallel.backends`) kept on the context
        across iterations, so its worker processes, with their
        shared-memory shards and chunk plans, are reused; each worker
        owns a disjoint
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
        latest checkpoint in ``checkpoint_dir``; ``resume=state`` does the
        same from an in-memory
        :class:`~repro.runtime.checkpoint.CheckpointState` (the
        ``checkpoint`` a preempted run's trip carries). A checkpoint from
        a different run configuration or tensor is rejected with
        ``ValueError``. Phase timers and kernel statistics restart from
        zero on resume (they are observability, not algorithm state).

    Runs are guarded by the run-level health machinery on ``ctx``
    (:mod:`repro.runtime.health`): cancellation and ``deadline_seconds``
    are checked between iterations (and between chunks inside the
    parallel backends); the trip carries the last completed iteration
    as ``exc.checkpoint`` (saved first when ``checkpoint_dir`` is set),
    so the run resumes bit-for-bit. A divergence/stall watchdog restores
    from the last healthy snapshot or reseeds when the objective goes
    non-finite or worsens for ``FallbackPolicy.max_unhealthy_iters``
    consecutive iterations, raising
    :class:`~repro.runtime.health.NumericalHealthError` once
    ``max_health_recoveries`` is exhausted.
    """
    if kernel not in HOOI_KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    if svd_method not in _SVD_METHODS:
        raise ValueError(f"unknown svd_method {svd_method!r}")
    if kernel == "css":
        svd_method = "expand"
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
