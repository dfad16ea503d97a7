"""Sparse symmetric HOQRI (Algorithm 4) on the SymProp S³TTMcTC kernel.

Each iteration computes the core (for the objective) and the update matrix
``A`` with one S³TTMc pass plus two small GEMMs (Algorithm 2), then
orthonormalizes ``A`` with QR — never expanding ``Y``. This is the
algorithm that scales to the datasets where HOOI's SVD goes OOM
(Figure 7).

``kernel="nary"`` swaps in the original HOQRI n-ary contraction baseline
([14]); same iterates, ``O(R^N N! unnz)`` work.

This module supplies the step; the loop around it (context, checkpoints,
the health watchdog, the objective) is :mod:`repro.decomp._sweep`.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..baselines.hoqri_nary import nary_hoqri_step
from ..core.s3ttmc import SymmetricInput
from ..core.s3ttmc_tc import times_core
from ..runtime.checkpoint import CheckpointState
from ..runtime.context import ExecContext
from ..runtime.timer import PhaseTimer
from ..symmetry.expansion import compact_from_full
from ._sweep import Sweep, sweep
from .result import DecompositionResult

__all__ = ["hoqri", "HOQRI_KERNELS"]

#: Algorithm families ``hoqri(kernel=...)`` accepts.
HOQRI_KERNELS = ("symprop", "nary")


def _qr_orthonormal(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ``A``'s columns, sign-fixed for determinism."""
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    signs = np.where(diag < 0, -1.0, 1.0)
    return q * signs[None, :]


def _step(run: Sweep, factor: np.ndarray, a, *, kernel: str):
    """One HOQRI iteration: QR of the carried ``A``, then the core and the
    next ``A`` from one S³TTMc pass plus ``times_core`` (or the n-ary
    contraction)."""
    # QR at the top of the body (from the previous iteration's A) keeps
    # the returned (factor, core, objective) triple consistent: the core
    # is computed with the returned factor.
    if a is not None:
        with run.timer.phase("qr"):
            factor = _qr_orthonormal(a)
    if kernel == "nary":
        with run.timer.phase("nary"):
            a, c1 = nary_hoqri_step(run.ucoo, factor, stats=run.stats)
        core_data = compact_from_full(
            c1, run.ucoo.order - 1, run.rank, check_symmetry=False
        )
        return factor, run.core(core_data), a
    y = run.s3ttmc(factor)
    with run.timer.phase("times_core"):
        result = times_core(y, factor, stats=run.stats, ctx=run.ctx)
    return factor, result.core, result.a


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
    ctx: Optional[ExecContext] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    checkpoint_every: int = 1,
    resume: Union[bool, CheckpointState] = False,
) -> DecompositionResult:
    """Higher-Order QR Iteration for sparse symmetric tensors.

    Parameters mirror :func:`repro.decomp.hooi.hooi`; ``kernel`` selects
    ``"symprop"`` (Algorithm 2) or ``"nary"`` (the original contraction).
    A ``ctx`` with ``execution="process"`` routes the S³TTMc pass
    through the process backend, reused across all iterations
    (requires ``kernel="symprop"``); each worker owns a disjoint tensor
    shard and the checkpoint records the shard map.
    ``checkpoint_dir`` / ``checkpoint_every`` / ``resume`` persist and
    continue runs exactly as in :func:`~repro.decomp.hooi.hooi` (``resume``
    also takes a preempted run's in-memory ``exc.checkpoint``); the
    checkpoint additionally carries HOQRI's pre-QR update matrix ``A``,
    so a resumed run re-enters the iteration at the QR step bit-for-bit.
    Deadlines, cancellation, and the numerical-health watchdog behave
    exactly as in :func:`~repro.decomp.hooi.hooi` (see
    :mod:`repro.runtime.health`).
    """
    if kernel not in HOQRI_KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    return sweep(
        partial(_step, kernel=kernel),
        tensor,
        rank,
        algorithm="hoqri",
        options={"kernel": kernel},
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
