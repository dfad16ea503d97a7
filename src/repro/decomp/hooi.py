"""Sparse symmetric HOOI (Algorithm 3) with pluggable S³TTMc kernels.

Each iteration: S³TTMc, then ``U ←`` the ``R`` leading left singular
vectors of ``Y_(1)``, then the core and the objective. Two SVD paths:

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

from pathlib import Path
from typing import Optional, Union

import numpy as np
import scipy.linalg

from ..core.s3ttmc import SymmetricInput, _as_ucoo, s3ttmc
from ..core.stats import KernelStats
from ..formats.partial_sym import PartiallySymmetricTensor
from ..runtime.checkpoint import (
    CheckpointState,
    load_checkpoint,
    save_checkpoint,
    tensor_fingerprint,
)
from ..runtime.context import ExecContext, resolve_context
from ..runtime.health import (
    DeadlineExceededError,
    HealthMonitor,
    RunCancelledError,
)
from ..runtime.timer import PhaseTimer
from ._execution import acquire_backend, resolve_run_context, sharding_config
from .hosvd import initialize
from .objective import relative_error
from .restarts import reseed_seed
from .result import ConvergenceTrace, DecompositionResult

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
    execution: Optional[str] = None,
    n_workers: Optional[int] = None,
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
    execution, n_workers:
        Legacy execution overrides. ``"serial"`` (the default) runs the
        plain kernel; ``"thread"`` / ``"process"`` route every S³TTMc
        through the parallel backend (:mod:`repro.parallel.backends`),
        created once and kept alive across iterations so chunk plans —
        and, for the process backend, the worker processes with their
        shared-memory operands — are reused. Requires
        ``kernel="symprop"``. ``n_workers`` defaults to the core count.
        Each worker owns a disjoint
        :class:`~repro.parallel.sharding.TensorShard`; partials merge
        through the hierarchical cross-shard reduction and checkpoints
        record the shard map. May not be combined with ``ctx``.
    ctx:
        Optional :class:`~repro.runtime.context.ExecContext` governing
        the whole run: its budget, collector, execution backend, plan
        cache, and default seed. ``None`` derives an ephemeral context
        from the ambient one (so legacy ``with MemoryBudget(...):`` /
        ``with TraceCollector():`` call sites behave exactly as before).
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
    ucoo = _as_ucoo(tensor)
    if ucoo.order < 2:
        raise ValueError("HOOI requires tensor order >= 2")
    if not 1 <= rank <= ucoo.dim:
        raise ValueError(f"rank must be in [1, {ucoo.dim}], got {rank}")
    if kernel not in HOOI_KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    if svd_method not in ("expand", "gram"):
        raise ValueError(f"unknown svd_method {svd_method!r}")
    run_ctx, owns_ctx = resolve_run_context(ctx, execution, n_workers)
    backend = acquire_backend(run_ctx, kernel)
    if seed is None:
        seed = run_ctx.seed
    rng = np.random.default_rng(seed)
    timer = timer if timer is not None else PhaseTimer()
    stats = KernelStats()
    trace = ConvergenceTrace()

    core: Optional[PartiallySymmetricTensor] = None
    prev_objective = np.inf
    converged = False
    start_iteration = 0
    checkpoint_config = {
        "algorithm": "hooi",
        "kernel": kernel,
        "svd_method": svd_method,
        "rank": int(rank),
        "tol": float(tol),
        **tensor_fingerprint(ucoo),
        **sharding_config(ucoo, rank, run_ctx, backend),
    }
    try:
        with run_ctx.scope():
            restored: Optional[CheckpointState] = None
            if checkpoint_dir is not None and resume:
                restored = load_checkpoint(checkpoint_dir, ctx=run_ctx)
            if restored is not None:
                restored.check_config(checkpoint_config)
                factor = np.array(restored.factor)
                norm_x_squared = restored.norm_x_squared
                prev_objective = restored.prev_objective
                converged = restored.converged
                start_iteration = restored.iteration + 1
                for vals in zip(
                    restored.objective,
                    restored.relative_error,
                    restored.core_norm_squared,
                ):
                    trace.record(*vals)
                if restored.core_data is not None:
                    core = PartiallySymmetricTensor(
                        rank, ucoo.order - 1, rank, np.array(restored.core_data)
                    )
            else:
                with timer.phase("init"):
                    factor = initialize(ucoo, rank, init, rng, ctx=run_ctx)
                    norm_x_squared = ucoo.norm_squared()

            last_snapshot: Optional[CheckpointState] = restored
            monitor = HealthMonitor(run_ctx.effective_fallback(), run_ctx)
            try:
                for _iteration in range(start_iteration, max_iters):
                    if converged:
                        break  # resumed from an already-converged checkpoint
                    run_ctx.check_health("hooi.iteration")
                    iter_error: Optional[Exception] = None
                    try:
                        with run_ctx.span(
                            "hooi.iteration",
                            iteration=_iteration,
                            kernel=kernel,
                            svd_method=svd_method,
                            rank=rank,
                        ):
                            with timer.phase("s3ttmc"):
                                if backend is not None:
                                    # Parallel path: plans (and, for the process
                                    # backend, worker-side state) persist across
                                    # iterations. KernelStats are not collected
                                    # chunk-wise.
                                    from ..parallel.executor import parallel_s3ttmc

                                    # backend= is deliberately not forwarded: the
                                    # executor resolves run_ctx.backend each call,
                                    # so an unhealthy-backend degrade sticks for
                                    # the remaining iterations.
                                    y = parallel_s3ttmc(
                                        ucoo,
                                        factor,
                                        memoize=memoize,
                                        ctx=run_ctx,
                                    )
                                elif kernel == "symprop":
                                    y = s3ttmc(
                                        ucoo,
                                        factor,
                                        memoize=memoize,
                                        stats=stats,
                                        nz_batch_size=nz_batch_size,
                                        ctx=run_ctx,
                                    )
                                else:
                                    from ..baselines.css_ttmc import css_s3ttmc

                                    y_full = css_s3ttmc(
                                        ucoo,
                                        factor,
                                        memoize=memoize,
                                        stats=stats,
                                        nz_batch_size=nz_batch_size,
                                        ctx=run_ctx,
                                    )
                                    # Compact for downstream steps (CSS-HOOI still
                                    # runs SVD on the full matrix; keep y_full for
                                    # that path).
                            with timer.phase("svd"):
                                if kernel == "symprop":
                                    if svd_method == "expand":
                                        factor = _leading_left_singular_vectors_expand(
                                            y, rank, ctx=run_ctx
                                        )
                                    else:
                                        factor = _leading_left_singular_vectors_gram(
                                            y, rank, ctx=run_ctx
                                        )
                                else:
                                    u, _s, _vt = scipy.linalg.svd(
                                        y_full, full_matrices=False
                                    )
                                    factor = u[:, :rank].copy()
                            with timer.phase("core"):
                                if kernel == "symprop":
                                    core = y.mode1_ttm(factor)
                                else:
                                    c1 = factor.T @ y_full
                                    # Compact the full core for uniform objective
                                    # computation.
                                    from ..symmetry.expansion import compact_from_full

                                    core_data = compact_from_full(
                                        c1, ucoo.order - 1, rank, check_symmetry=False
                                    )
                                    core = PartiallySymmetricTensor(
                                        rank, ucoo.order - 1, rank, core_data
                                    )
                            with timer.phase("objective"):
                                core_norm_sq = core.norm_squared()
                                objective = norm_x_squared - core_norm_sq
                                trace.record(
                                    objective,
                                    relative_error(norm_x_squared, core),
                                    core_norm_sq,
                                )
                    except (ValueError, np.linalg.LinAlgError) as exc:
                        # Numerical blow-ups surface as untyped errors from
                        # the SVD/eigh path (non-finite inputs, failed
                        # convergence). Route them through the watchdog as a
                        # non-finite strike instead of crashing the run.
                        iter_error = exc
                    directive = monitor.observe(
                        float("nan") if iter_error is not None else objective,
                        prev_objective,
                        norm_x_squared=norm_x_squared,
                        iteration=_iteration,
                    )
                    if (
                        directive == "restore"
                        and last_snapshot is not None
                        and last_snapshot.core_data is not None
                    ):
                        # Replay the last healthy iteration's state exactly
                        # as resume would — transient corruption that slipped
                        # past the chunk checks is discarded without losing
                        # converged progress.
                        factor = np.array(last_snapshot.factor)
                        prev_objective = last_snapshot.prev_objective
                        core = PartiallySymmetricTensor(
                            rank,
                            ucoo.order - 1,
                            rank,
                            np.array(last_snapshot.core_data),
                        )
                        trace = ConvergenceTrace()
                        for vals in zip(
                            last_snapshot.objective,
                            last_snapshot.relative_error,
                            last_snapshot.core_norm_squared,
                        ):
                            trace.record(*vals)
                        continue
                    if directive is not None:
                        # Reseed (also the fallback when there is no healthy
                        # snapshot to restore): deterministic divergence
                        # re-strikes from the same state, so draw the next
                        # restart seed instead.
                        factor = initialize(
                            ucoo,
                            rank,
                            "random",
                            np.random.default_rng(
                                reseed_seed(
                                    seed, monitor.recoveries, ctx=run_ctx
                                )
                            ),
                            ctx=run_ctx,
                        )
                        prev_objective = np.inf
                        continue
                    if monitor.strikes:
                        # Unhealthy but under the strike ceiling: keep the
                        # last healthy bookkeeping so a NaN/worsened
                        # objective never poisons prev_objective or lands in
                        # a checkpoint.
                        continue
                    if prev_objective - objective <= tol * max(
                        norm_x_squared, 1e-300
                    ):
                        converged = True
                    else:
                        prev_objective = objective
                    last_snapshot = CheckpointState(
                        algorithm="hooi",
                        iteration=_iteration,
                        factor=factor,
                        prev_objective=prev_objective,
                        norm_x_squared=norm_x_squared,
                        converged=converged,
                        objective=list(trace.objective),
                        relative_error=list(trace.relative_error),
                        core_norm_squared=list(trace.core_norm_squared),
                        core_data=core.data,
                        core_nrows=core.nrows,
                        config=checkpoint_config,
                    )
                    if checkpoint_dir is not None and (
                        converged
                        or _iteration == max_iters - 1
                        or (_iteration - start_iteration + 1)
                        % max(1, checkpoint_every)
                        == 0
                    ):
                        with timer.phase("checkpoint"):
                            save_checkpoint(
                                checkpoint_dir, last_snapshot, ctx=run_ctx
                            )
                    if converged:
                        break
            except (RunCancelledError, DeadlineExceededError):
                # Preemption mid-iteration: persist the last completed
                # iteration so the run resumes bit-for-bit, then let the
                # trip propagate to the caller.
                if checkpoint_dir is not None and last_snapshot is not None:
                    save_checkpoint(checkpoint_dir, last_snapshot, ctx=run_ctx)
                raise
    finally:
        if owns_ctx:
            run_ctx.close()

    assert core is not None, "max_iters must be >= 1"
    return DecompositionResult(
        factor=factor,
        core=core,
        trace=trace,
        converged=converged,
        algorithm=f"hooi[{kernel},{svd_method}]",
        timer=timer,
        stats=stats,
        norm_x_squared=norm_x_squared,
    )
