"""The iteration loop HOOI (Algorithm 3) and HOQRI (Algorithm 4) share.

Both algorithms repeat one outer iteration: S³TTMc, a factor update, the
core, and the objective test. :func:`sweep` owns everything around the
algorithm-specific part:

* the run's context — the explicit ``ctx``, else the thread's active
  context, else an ephemeral child of the process default, closed with
  the run — and the parallel backend kept on it across iterations, so the
  chunk-plan cache (and, for the process backend, the worker processes
  with their shared-memory shards) amortizes symbolic work down to
  iteration 1 only;
* the checkpoint configuration (with a parallel run's shard map),
  resume (from ``checkpoint_dir`` or from an in-memory
  :class:`~repro.runtime.checkpoint.CheckpointState`), the checkpoint
  cadence, and preemption: a cancel or deadline trip carries the last
  completed iteration's state as ``exc.checkpoint`` (and saves it when
  the run has a ``checkpoint_dir``);
* the numerical-health watchdog with its restore → reseed ladder;
* the objective, the strike and convergence bookkeeping, and the
  ``<algorithm>.iteration`` span.

A *step* is one iteration of the algorithm proper. It is called with the
:class:`Sweep` (tensor, rank, context, timer, kernel statistics), the
current factor and the carried update matrix ``A``, and returns the new
``(factor, core, A)``; the core must be computed from the returned
factor. HOQRI carries its pre-QR ``A`` between iterations (and into its
checkpoints); HOOI carries none and returns ``None``. A step that raises
``ValueError`` or ``LinAlgError`` leaves the state unchanged and counts
as a non-finite objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..core.s3ttmc import SymmetricInput, _as_ucoo, s3ttmc
from ..core.stats import KernelStats
from ..formats.partial_sym import PartiallySymmetricTensor
from ..formats.ucoo import SparseSymmetricTensor
from ..runtime.checkpoint import (
    CheckpointState,
    load_checkpoint,
    save_checkpoint,
    tensor_fingerprint,
)
from ..runtime.context import ExecContext, default_context, resolve_context
from ..runtime.health import (
    DeadlineExceededError,
    HealthMonitor,
    NumericalHealthError,
    RunCancelledError,
)
from ..runtime.timer import PhaseTimer
from .hosvd import initialize
from .objective import relative_error
from .restarts import reseed_seed
from .result import ConvergenceTrace, DecompositionResult

if TYPE_CHECKING:
    from ..parallel.backends import Backend

__all__ = ["Sweep", "Step", "sweep"]


@dataclass
class Sweep:
    """What a step reads: the run's operands, context and instruments."""

    ucoo: SparseSymmetricTensor
    rank: int
    ctx: ExecContext
    backend: Optional[Backend]
    timer: PhaseTimer
    stats: KernelStats
    memoize: str
    nz_batch_size: Optional[int]

    def s3ttmc(self, factor: np.ndarray) -> PartiallySymmetricTensor:
        """Compact ``Y`` for ``factor``, timed as the ``s3ttmc`` phase.

        Parallel runs go through
        :func:`~repro.parallel.executor.parallel_s3ttmc`, which collects
        no :class:`KernelStats`. ``backend=`` is deliberately not
        forwarded: the executor resolves ``ctx.backend`` each call, so an
        unhealthy-backend degrade sticks for the remaining iterations.
        """
        with self.timer.phase("s3ttmc"):
            if self.backend is not None:
                from ..parallel.executor import parallel_s3ttmc

                return parallel_s3ttmc(
                    self.ucoo, factor, memoize=self.memoize, ctx=self.ctx
                )
            return s3ttmc(
                self.ucoo,
                factor,
                memoize=self.memoize,
                stats=self.stats,
                nz_batch_size=self.nz_batch_size,
                ctx=self.ctx,
            )

    def core(self, data: np.ndarray) -> PartiallySymmetricTensor:
        """The compact ``R × S_{N-1,R}`` core holding ``data``."""
        return PartiallySymmetricTensor(
            self.rank, self.ucoo.order - 1, self.rank, data
        )


#: ``step(run, factor, a) -> (factor, core, a)``; see the module doc.
Step = Callable[
    [Sweep, np.ndarray, Optional[np.ndarray]],
    Tuple[np.ndarray, PartiallySymmetricTensor, Optional[np.ndarray]],
]


def sweep(
    step: Step,
    tensor: SymmetricInput,
    rank: int,
    *,
    algorithm: str,
    options: Dict[str, str],
    max_iters: int,
    tol: float,
    init: Union[str, np.ndarray],
    seed: Optional[int],
    memoize: str,
    nz_batch_size: Optional[int],
    timer: Optional[PhaseTimer],
    ctx: Optional[ExecContext],
    checkpoint_dir: Optional[Union[str, Path]],
    checkpoint_every: int,
    resume: Union[bool, CheckpointState],
) -> DecompositionResult:
    """Iterate ``step`` from ``init`` (or a checkpoint) to convergence.

    ``options`` are the algorithm's settings, ``kernel`` first. They
    enter the checkpoint config, the iteration span's attributes and the
    result label ``algorithm[value,...]``. The remaining arguments are
    the drivers' own; see :func:`repro.decomp.hooi.hooi`.
    """
    ucoo = _as_ucoo(tensor)
    if ucoo.order < 2:
        raise ValueError(f"{algorithm.upper()} requires tensor order >= 2")
    if not 1 <= rank <= ucoo.dim:
        raise ValueError(f"rank must be in [1, {ucoo.dim}], got {rank}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    run_ctx, owns_ctx = resolve_run_context(ctx)
    if timer is None:
        timer = PhaseTimer()
    timer.collector = run_ctx.collector
    try:
        backend = acquire_backend(run_ctx, options["kernel"])
        run = Sweep(
            ucoo,
            rank,
            run_ctx,
            backend,
            timer,
            KernelStats(),
            memoize,
            nz_batch_size,
        )
        config = {
            "algorithm": algorithm,
            **options,
            "rank": int(rank),
            "tol": float(tol),
            **tensor_fingerprint(ucoo),
            **sharding_config(ucoo, rank, run_ctx, backend),
        }
        if seed is None:
            seed = run_ctx.seed
        with run_ctx.scope():
            restored: Optional[CheckpointState] = None
            if isinstance(resume, CheckpointState):
                restored = resume
            elif checkpoint_dir is not None and resume:
                restored = load_checkpoint(checkpoint_dir, ctx=run_ctx)
            if restored is not None:
                restored.check_config(config)
                factor, a, core, trace = _replay(run, restored)
                norm_x_squared = restored.norm_x_squared
                prev_objective = restored.prev_objective
                converged = restored.converged
                start_iteration = restored.iteration + 1
            else:
                with run.timer.phase("init"):
                    factor = initialize(
                        ucoo, rank, init, np.random.default_rng(seed), ctx=run_ctx
                    )
                    norm_x_squared = ucoo.norm_squared()
                a, core, trace = None, None, ConvergenceTrace()
                prev_objective, converged, start_iteration = np.inf, False, 0

            last_snapshot = restored
            monitor = HealthMonitor(run_ctx.effective_fallback(), run_ctx)
            try:
                for iteration in range(start_iteration, max_iters):
                    if converged:
                        break  # resumed from an already-converged checkpoint
                    run_ctx.check_health(f"{algorithm}.iteration")
                    try:
                        with run_ctx.span(
                            f"{algorithm}.iteration",
                            iteration=iteration,
                            **options,
                            rank=rank,
                        ):
                            factor, core, a = step(run, factor, a)
                            with run.timer.phase("objective"):
                                core_norm_sq = core.norm_squared()
                                objective = norm_x_squared - core_norm_sq
                                trace.record(
                                    objective,
                                    relative_error(norm_x_squared, core),
                                    core_norm_sq,
                                )
                    except (ValueError, np.linalg.LinAlgError):
                        # Numerical blow-ups surface as untyped errors from
                        # the SVD/QR paths (non-finite inputs, failed
                        # convergence). Route them through the watchdog as
                        # a non-finite strike instead of crashing the run.
                        objective = float("nan")
                    directive = monitor.observe(
                        objective,
                        prev_objective,
                        norm_x_squared=norm_x_squared,
                        iteration=iteration,
                    )
                    if (
                        directive == "restore"
                        and last_snapshot is not None
                        and last_snapshot.core_data is not None
                    ):
                        # Replay the last healthy iteration's state exactly
                        # as resume would, HOQRI's pre-QR A included:
                        # transient corruption that slipped past the chunk
                        # checks is discarded without losing progress.
                        factor, a, core, trace = _replay(run, last_snapshot)
                        prev_objective = last_snapshot.prev_objective
                        continue
                    if directive is not None:
                        # Reseed (also the fallback when there is no healthy
                        # snapshot to restore): deterministic divergence
                        # re-strikes from the same state, so draw the next
                        # restart seed instead, and drop A so the fresh
                        # factor is used directly.
                        factor = initialize(
                            ucoo,
                            rank,
                            "random",
                            np.random.default_rng(
                                reseed_seed(seed, monitor.recoveries, ctx=run_ctx)
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
                        algorithm=algorithm,
                        iteration=iteration,
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
                        config=config,
                    )
                    if checkpoint_dir is not None and (
                        converged
                        or iteration == max_iters - 1
                        or (iteration - start_iteration + 1)
                        % max(1, checkpoint_every)
                        == 0
                    ):
                        with run.timer.phase("checkpoint"):
                            save_checkpoint(
                                checkpoint_dir, last_snapshot, ctx=run_ctx
                            )
                    if converged:
                        break
            except (RunCancelledError, DeadlineExceededError) as trip:
                # Preemption mid-iteration: hand the last completed
                # iteration to the caller on the trip (and persist it) so
                # the run resumes bit-for-bit, then let the trip propagate.
                trip.checkpoint = last_snapshot
                if checkpoint_dir is not None and last_snapshot is not None:
                    save_checkpoint(checkpoint_dir, last_snapshot, ctx=run_ctx)
                raise
    finally:
        if owns_ctx:
            run_ctx.close()

    if core is None:
        raise NumericalHealthError("no iteration completed")
    return DecompositionResult(
        factor=factor,
        core=core,
        trace=trace,
        converged=converged,
        algorithm=f"{algorithm}[{','.join(options.values())}]",
        timer=run.timer,
        stats=run.stats,
        norm_x_squared=norm_x_squared,
    )


def _replay(run: Sweep, state: CheckpointState):
    """``(factor, a, core, trace)`` as ``state`` recorded them."""
    trace = ConvergenceTrace()
    for vals in zip(state.objective, state.relative_error, state.core_norm_squared):
        trace.record(*vals)
    a = None if state.a is None else np.array(state.a)
    core = None if state.core_data is None else run.core(np.array(state.core_data))
    return np.array(state.factor), a, core, trace


def resolve_run_context(ctx: Optional[ExecContext]) -> Tuple[ExecContext, bool]:
    """The context a run executes under, and whether the run owns it.

    An explicit ``ctx``, or else the thread's active context, stays the
    caller's: its backend outlives the run. Otherwise the run derives an
    ephemeral child of the process default (sharing its plan cache) and
    closes it, with any backend it adopted, at the end.
    """
    ctx = resolve_context(ctx)
    if ctx is default_context():
        return ctx.derive(), True
    return ctx, False


def acquire_backend(ctx: ExecContext, kernel: str) -> Optional[Backend]:
    """Validated backend for ``ctx``, or ``None`` for the serial path.

    ``execution="serial"`` keeps the direct :func:`s3ttmc` path
    byte-for-byte (no chunking, no partition). Parallel execution only
    exists for the symprop kernel with compact intermediates — the CSS
    baseline's full layout has no chunked form. A backend the context
    does not own yet is created and adopted.
    """
    ctx.validate(
        kernel=kernel, intermediate="full" if kernel == "css" else "compact"
    )
    if ctx.execution == "serial":
        return None
    if ctx.backend is None:
        from ..parallel.backends import make_backend

        ctx.adopt_backend(
            make_backend(ctx.execution, ctx.n_workers, run_token=ctx.run_token)
        )
    return ctx.backend


def sharding_config(
    ucoo, rank: int, ctx: ExecContext, backend: Optional[Backend]
) -> dict:
    """Checkpoint-config entries describing a parallel run's shard map.

    Empty for serial runs (nothing distribution-dependent to pin). For
    parallel runs it records ``"sharding": "owned"`` and the shard map —
    the exact non-zero ranges each worker owns — so a resume can verify
    the checkpoint was produced under the same shard layout. A parallel
    checkpoint without these entries (written while a broadcast layout
    existed) is rejected on ``"sharding"``. The ranges come from the same
    cached :func:`~repro.parallel.sharding.partition_ranges` the executor
    uses, and are recorded as lists-of-lists for JSON stability.
    """
    if backend is None:
        return {}
    from ..parallel.sharding import partition_ranges

    n_chunks = ctx.n_workers if ctx.n_workers is not None else backend.n_workers
    ranges = partition_ranges(ucoo, rank, max(1, n_chunks), ctx)
    return {
        "sharding": "owned",
        "shard_ranges": [[int(a), int(b)] for a, b in ranges],
    }
