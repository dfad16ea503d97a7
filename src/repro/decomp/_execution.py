"""Execution-context plumbing shared by the decomposition drivers.

``hooi()`` and ``hoqri()`` accept either an explicit
:class:`~repro.runtime.context.ExecContext` (``ctx=``) or the legacy
``execution="serial"|"thread"|"process"`` / ``n_workers`` keywords. Both
roads lead here:

* :func:`resolve_run_context` turns the caller's arguments into the
  context the run executes under — the explicit one, or an ephemeral
  child derived from the ambient context carrying the legacy overrides
  (sharing the ambient budget/collector/plan cache).
* :func:`acquire_backend` validates the settings via
  :meth:`~repro.runtime.context.ExecContext.validate` and returns the
  context's backend for parallel executions, creating and adopting one
  when the context doesn't own one yet. Keeping the backend on the
  context across iterations is what lets the chunk-plan cache (and, for
  the process backend, the worker processes with their shared-memory
  shards) amortize symbolic work down to iteration 1 only.
* :func:`sharding_config` pins a parallel run's shard map into its
  checkpoint configuration.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..parallel.backends import Backend, make_backend
from ..runtime.context import ExecContext, current_context

__all__ = [
    "acquire_backend",
    "resolve_run_context",
    "sharding_config",
]


def resolve_run_context(
    ctx: Optional[ExecContext],
    execution: Optional[str],
    n_workers: Optional[int],
) -> Tuple[ExecContext, bool]:
    """The context a decomposition run executes under, plus ownership.

    Returns ``(run_ctx, owns_ctx)``: with an explicit ``ctx`` the caller
    keeps ownership (``owns_ctx=False`` — its backend outlives the run);
    otherwise an ephemeral child of the ambient context is derived with
    the legacy keyword overrides and ``owns_ctx=True`` tells the driver
    to ``close()`` it (and any backend it adopted) when the run ends.

    ``execution`` / ``n_workers`` may not contradict an explicit ``ctx``
    — the context already states how to execute.
    """
    if ctx is not None:
        if execution is not None and execution != ctx.execution:
            raise ValueError(
                f"execution={execution!r} conflicts with ctx.execution="
                f"{ctx.execution!r}; configure the ExecContext instead"
            )
        if n_workers is not None and n_workers != ctx.n_workers:
            raise ValueError(
                "n_workers conflicts with ctx.n_workers; configure the "
                "ExecContext instead"
            )
        return ctx, False
    base = current_context()
    if execution is None and n_workers is None and not base.is_ambient:
        return base, False  # run inside the active explicit context
    run_ctx = base.derive(
        execution=execution if execution is not None else base.execution,
        n_workers=n_workers,
    )
    return run_ctx, True


def acquire_backend(ctx: ExecContext, kernel: str) -> Optional[Backend]:
    """Validated backend for ``ctx``, or ``None`` for the serial path.

    ``execution="serial"`` keeps the direct :func:`s3ttmc` path
    byte-for-byte (no chunking, no partition). Parallel execution only
    exists for the symprop kernel with compact intermediates — the CSS
    baseline's full layout has no chunked form.
    """
    ctx.validate(
        kernel=kernel, intermediate="full" if kernel == "css" else "compact"
    )
    if ctx.execution == "serial":
        return None
    if ctx.backend is None:
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
