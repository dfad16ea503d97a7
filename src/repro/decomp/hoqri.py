"""Sparse symmetric HOQRI (Algorithm 4) on the SymProp S³TTMcTC kernel.

Each iteration computes the core (for the objective) and the update matrix
``A`` with one S³TTMc pass plus two small GEMMs (Algorithm 2), then
orthonormalizes ``A`` with QR — never expanding ``Y``. This is the
algorithm that scales to the datasets where HOOI's SVD goes OOM
(Figure 7).

``kernel="nary"`` swaps in the original HOQRI n-ary contraction baseline
([14]); same iterates, ``O(R^N N! unnz)`` work.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..baselines.hoqri_nary import nary_hoqri_step
from ..core.s3ttmc import SymmetricInput, _as_ucoo, s3ttmc
from ..core.s3ttmc_tc import times_core
from ..core.stats import KernelStats
from ..formats.partial_sym import PartiallySymmetricTensor
from ..runtime.checkpoint import (
    CheckpointState,
    load_checkpoint,
    save_checkpoint,
    tensor_fingerprint,
)
from ..runtime.context import ExecContext
from ..runtime.health import (
    DeadlineExceededError,
    HealthMonitor,
    RunCancelledError,
)
from ..runtime.timer import PhaseTimer
from ..symmetry.expansion import compact_from_full
from ._execution import acquire_backend, resolve_run_context, sharding_config
from .hosvd import initialize
from .objective import relative_error
from .restarts import reseed_seed
from .result import ConvergenceTrace, DecompositionResult

__all__ = ["hoqri", "HOQRI_KERNELS"]

#: Algorithm families ``hoqri(kernel=...)`` accepts.
HOQRI_KERNELS = ("symprop", "nary")


def _qr_orthonormal(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ``A``'s columns, sign-fixed for determinism."""
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    signs = np.where(diag < 0, -1.0, 1.0)
    return q * signs[None, :]


def hoqri(
    tensor: SymmetricInput,
    rank: int,
    *,
    max_iters: int = 100,
    tol: float = 1e-8,
    init: Union[str, np.ndarray] = "random",
    seed: Optional[int] = None,
    kernel: str = "symprop",
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
    """Higher-Order QR Iteration for sparse symmetric tensors.

    Parameters mirror :func:`repro.decomp.hooi.hooi`; ``kernel`` selects
    ``"symprop"`` (Algorithm 2) or ``"nary"`` (the original contraction).
    ``execution="thread"|"process"`` routes the S³TTMc pass through the
    parallel backend, reused across all iterations (requires
    ``kernel="symprop"``); each worker owns a disjoint tensor shard and
    the checkpoint records the shard map. ``ctx`` supplies a full
    :class:`~repro.runtime.context.ExecContext` (budget, collector,
    backend, plan cache, default seed) instead of the legacy keywords.
    ``checkpoint_dir`` / ``checkpoint_every`` / ``resume`` persist and
    continue runs exactly as in :func:`~repro.decomp.hooi.hooi`; the
    checkpoint additionally carries HOQRI's pre-QR update matrix ``A``,
    so a resumed run re-enters the iteration at the QR step bit-for-bit.
    Deadlines, cancellation, and the numerical-health watchdog behave
    exactly as in :func:`~repro.decomp.hooi.hooi` (see
    :mod:`repro.runtime.health`).
    """
    ucoo = _as_ucoo(tensor)
    if ucoo.order < 2:
        raise ValueError("HOQRI requires tensor order >= 2")
    if not 1 <= rank <= ucoo.dim:
        raise ValueError(f"rank must be in [1, {ucoo.dim}], got {rank}")
    if kernel not in HOQRI_KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
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
    a: Optional[np.ndarray] = None
    start_iteration = 0
    checkpoint_config = {
        "algorithm": "hoqri",
        "kernel": kernel,
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
                a = None if restored.a is None else np.array(restored.a)
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
                    run_ctx.check_health("hoqri.iteration")
                    iter_error: Optional[Exception] = None
                    try:
                        with run_ctx.span(
                            "hoqri.iteration",
                            iteration=_iteration,
                            kernel=kernel,
                            rank=rank,
                        ):
                            # QR at the top of the body (from the previous
                            # iteration's A) keeps the returned (factor, core,
                            # objective) triple consistent: on exit `core` was
                            # computed with the current `factor`.
                            if a is not None:
                                with timer.phase("qr"):
                                    factor = _qr_orthonormal(a)
                            if kernel == "symprop":
                                with timer.phase("s3ttmc"):
                                    if backend is not None:
                                        from ..parallel.executor import parallel_s3ttmc

                                        # backend= not forwarded: the executor
                                        # resolves run_ctx.backend each call, so a
                                        # degrade sticks for later iterations.
                                        y = parallel_s3ttmc(
                                            ucoo,
                                            factor,
                                            memoize=memoize,
                                            ctx=run_ctx,
                                        )
                                    else:
                                        y = s3ttmc(
                                            ucoo,
                                            factor,
                                            memoize=memoize,
                                            stats=stats,
                                            nz_batch_size=nz_batch_size,
                                            ctx=run_ctx,
                                        )
                                with timer.phase("times_core"):
                                    result = times_core(
                                        y, factor, stats=stats, ctx=run_ctx
                                    )
                                core = result.core
                                a = result.a
                            else:
                                with timer.phase("nary"):
                                    a, c1 = nary_hoqri_step(ucoo, factor, stats=stats)
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
                        # Numerical blow-ups surface as untyped errors
                        # from the QR/GEMM path (non-finite inputs,
                        # failed convergence). Route them through the
                        # watchdog as a non-finite strike instead of
                        # crashing the run.
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
                        # as resume would — including the pre-QR update
                        # matrix A, so the next iteration re-enters at the
                        # QR step.
                        factor = np.array(last_snapshot.factor)
                        a = (
                            None
                            if last_snapshot.a is None
                            else np.array(last_snapshot.a)
                        )
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
                        # restart seed instead. A is cleared so the fresh
                        # factor is used directly next iteration.
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
                        a = None
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
                        algorithm="hoqri",
                        iteration=_iteration,
                        factor=factor,
                        prev_objective=prev_objective,
                        norm_x_squared=norm_x_squared,
                        converged=converged,
                        objective=list(trace.objective),
                        relative_error=list(trace.relative_error),
                        core_norm_squared=list(trace.core_norm_squared),
                        a=a,
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
        algorithm=f"hoqri[{kernel}]",
        timer=timer,
        stats=stats,
        norm_x_squared=norm_x_squared,
    )
