"""Reseed seeds for health-driven re-initialization.

For large tensors where HOSVD initialization is infeasible, the paper
randomly initializes each algorithm 20 times with different seeds
(footnote 5); restart ``k`` uses seed ``base + k``. A run the health
watchdog re-initializes walks the same sequence.
"""

from __future__ import annotations

from typing import Optional

from ..runtime.context import ExecContext, resolve_context

__all__ = ["reseed_seed"]


def reseed_seed(
    base_seed: Optional[int],
    attempt: int,
    *,
    ctx: Optional[ExecContext] = None,
) -> int:
    """Seed for health-driven reseed ``attempt`` (1-based).

    When the numerical-health watchdog
    (:class:`repro.runtime.health.HealthMonitor`) decides a run must be
    re-initialized, the driver draws the replacement factor from this
    seed. Attempt ``k`` uses ``base_seed + k`` — the paper's restart
    convention — so recovery stays deterministic.

    A seedless run (``base_seed=None`` and no context seed) derives its
    base from the context's ``run_token`` instead of collapsing to ``0``:
    collapsing would make every seedless job's recovery walk the exact
    seed sequence of an explicit ``base_seed=0`` job — and of every
    *other* seedless job — correlating "independent" tenant runs in a
    shared service. Token-derived bases are unique per run yet stable
    within it, so recovery stays deterministic for any one run.
    """
    if attempt < 1:
        raise ValueError("attempt must be >= 1")
    if base_seed is None:
        rctx = resolve_context(ctx)
        if rctx.seed is not None:
            base_seed = int(rctx.seed)
        else:
            # run_token is 8 hex chars; the int is < 2**32 and unique
            # per context.
            base_seed = int(rctx.run_token, 16)
    return int(base_seed) + int(attempt)
