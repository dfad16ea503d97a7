"""Chaos soak suite: randomized faults × cancellations × deadlines.

Each :class:`ChaosSchedule` is a fully seed-determined plan: a workload
from the differential-oracle generators, an execution backend, a set of
injected faults (:mod:`repro.runtime.faults` — including the ``nan`` and
``slow`` kinds), an optional wall-clock deadline, and an optional
cross-thread cancellation timer. The suite runs every schedule and holds
the run to a closed-world contract:

* **Completion** must be oracle-verified — the S³TTMc output matches a
  clean serial reference (allclose; fault retries may reorder
  summation), or the HOOI run reaches the reference's relative error
  with an orthonormal factor.
* **Failure** must be *exactly one typed error* from the resilience
  taxonomy: :class:`~repro.runtime.health.DeadlineExceededError`,
  :class:`~repro.runtime.health.RunCancelledError`,
  :class:`~repro.runtime.health.NumericalHealthError`,
  :class:`~repro.runtime.faults.BackendUnhealthyError` or
  :class:`~repro.runtime.budget.MemoryLimitError`. Anything else — a
  raw ``ValueError`` out of a kernel, a deadlock, a worker traceback —
  fails the suite.
* **Hygiene** holds either way: after the context closes, the memory
  budget is drained and no shared-memory segments created during the
  schedule are still live.

Run it with ``python -m repro.verify --config chaos`` (``--schedules``
sizes the soak; CI runs 50).
"""

from __future__ import annotations

import tempfile
import threading
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from ..core.s3ttmc import s3ttmc
from ..obs.trace import TraceCollector
from ..runtime.budget import MemoryBudget, MemoryLimitError
from ..runtime.context import ExecContext
from ..runtime.faults import BackendUnhealthyError, FaultInjector, FaultSpec
from ..runtime.health import (
    CancelToken,
    DeadlineExceededError,
    NumericalHealthError,
    RunCancelledError,
)
from .generators import Workload, generate
from .oracles import CheckResult

__all__ = [
    "ChaosSchedule",
    "TYPED_FAILURES",
    "chaos_schedules",
    "run_chaos_case",
]

#: The closed set of acceptable failure types. A chaos run that raises
#: anything outside this tuple fails the suite.
TYPED_FAILURES = (
    DeadlineExceededError,
    RunCancelledError,
    NumericalHealthError,
    BackendUnhealthyError,
    MemoryLimitError,
)

#: Workloads cycled through by the schedule generator (seed is replaced
#: per schedule). Small enough that 50+ schedules stay CI-friendly.
_WORKLOAD_POOL = (
    Workload(order=3, dim=7, rank=4, unnz=25, dist="uniform"),
    Workload(order=3, dim=8, rank=3, unnz=30, dist="skewed"),
    Workload(order=4, dim=6, rank=3, unnz=20, dist="dupes"),
)

_FAULT_KIND_POOL = ("crash", "hang", "oom", "corrupt", "error", "nan", "slow")


@dataclass(frozen=True)
class _ChaosResult(CheckResult):
    """A chaos-suite verdict; the repro line reruns the one schedule."""

    chaos_seed: int = 0

    @property
    def repro(self) -> str:
        return (
            f"python -m repro.verify --config chaos "
            f"--base-seed {self.chaos_seed} --schedules 1"
        )


@dataclass(frozen=True)
class ChaosSchedule:
    """One seed-determined chaos plan (workload + backend + injected chaos)."""

    seed: int
    workload: Workload
    target: str  # "s3ttmc" | "hooi"
    execution: str  # "serial" | "process"
    n_workers: Optional[int]
    faults: Tuple[FaultSpec, ...]
    deadline_seconds: Optional[float]
    cancel_after: Optional[float]

    @property
    def spec(self) -> str:
        parts = [f"chaos seed={self.seed}", self.target, self.execution]
        if self.faults:
            parts.append(
                "faults=" + "+".join(f.kind for f in self.faults)
            )
        if self.deadline_seconds is not None:
            parts.append(f"deadline={self.deadline_seconds:.2f}s")
        if self.cancel_after is not None:
            parts.append(f"cancel@{self.cancel_after:.2f}s")
        return " ".join(parts)


def chaos_schedules(
    n_schedules: int = 50,
    base_seed: int = 0,
    include_process: bool = False,
) -> List[ChaosSchedule]:
    """The seeded schedule matrix: schedule ``i`` draws from RNG
    ``base_seed + i`` alone, so any schedule reruns in isolation."""
    out: List[ChaosSchedule] = []
    for i in range(n_schedules):
        seed = base_seed + i
        rng = np.random.default_rng(seed)
        workload = replace(
            _WORKLOAD_POOL[int(rng.integers(len(_WORKLOAD_POOL)))], seed=seed
        )
        target = "hooi" if rng.random() < 0.34 else "s3ttmc"
        if include_process and i % 3 == 2:
            execution, n_workers = "process", 2
        else:
            # This draw once chose between two in-process backends; it
            # is kept so every seed keeps the rest of its schedule.
            rng.random()
            execution, n_workers = "serial", None
        faults = tuple(
            FaultSpec(
                site="chunk",
                kind=_FAULT_KIND_POOL[int(rng.integers(len(_FAULT_KIND_POOL)))],
                after=int(rng.integers(0, 3)),
                times=1,
                seconds=float(rng.uniform(0.1, 0.3)),
                scale=float(rng.uniform(0.5, 2.0)),
            )
            for _ in range(int(rng.integers(0, 3)))
        )
        deadline = (
            float(rng.uniform(0.15, 0.5)) if rng.random() < 0.3 else None
        )
        cancel_after = (
            float(rng.uniform(0.05, 0.25)) if rng.random() < 0.25 else None
        )
        out.append(
            ChaosSchedule(
                seed=seed,
                workload=workload,
                target=target,
                execution=execution,
                n_workers=n_workers,
                faults=faults,
                deadline_seconds=deadline,
                cancel_after=cancel_after,
            )
        )
    return out


def _verify_s3ttmc(schedule: ChaosSchedule, got, gen) -> Tuple[bool, str]:
    ref = s3ttmc(gen.tensor, gen.factor, kernel="generic")
    if got.data.shape != ref.data.shape:
        return False, f"shape {got.data.shape} != reference {ref.data.shape}"
    scale = float(np.max(np.abs(ref.data))) if ref.data.size else 0.0
    if not np.allclose(got.data, ref.data, rtol=1e-9, atol=1e-9 * max(scale, 1.0)):
        worst = float(np.max(np.abs(got.data - ref.data))) if got.data.size else 0.0
        return False, f"output diverged from serial reference (max abs {worst:g})"
    return True, "completed; matches serial reference"


def _verify_hooi(schedule: ChaosSchedule, result, reference) -> Tuple[bool, str]:
    if not np.isfinite(result.relative_error):
        return False, f"non-finite relative error {result.relative_error}"
    gram = result.factor.T @ result.factor
    if not np.allclose(gram, np.eye(gram.shape[0]), atol=1e-8):
        return False, "factor lost orthonormality"
    # rtol for genuinely different errors, atol because near-exact
    # recoveries sit at ~1e-8 where backend summation order dominates.
    if not np.isclose(
        result.relative_error, reference.relative_error, rtol=1e-6, atol=1e-6
    ):
        return False, (
            f"relative error {result.relative_error!r} != serial "
            f"reference {reference.relative_error!r}"
        )
    return True, "completed; orthonormal factor at reference error"


def run_chaos_case(
    schedule: ChaosSchedule, *, trace_path: Optional[str] = None
) -> List[CheckResult]:
    """Run one schedule; return its outcome and hygiene verdicts."""
    from ..parallel import shm as _shm
    from ..parallel.executor import parallel_s3ttmc

    gen = generate(schedule.workload)
    token = CancelToken() if schedule.cancel_after is not None else None
    segments_before = set(_shm._LIVE_SEGMENTS)
    ctx = ExecContext(
        budget=MemoryBudget(),
        collector=TraceCollector(),
        execution=schedule.execution,
        n_workers=schedule.n_workers,
        faults=FaultInjector(list(schedule.faults)),
        deadline_seconds=schedule.deadline_seconds,
        cancel=token,
    )
    timer: Optional[threading.Timer] = None
    if token is not None:
        timer = threading.Timer(
            schedule.cancel_after, token.cancel, args=("chaos eviction",)
        )
        timer.daemon = True
        timer.start()

    ok = True
    detail = ""
    try:
        try:
            if schedule.target == "s3ttmc":
                got = parallel_s3ttmc(gen.tensor, gen.factor, ctx=ctx)
                ok, detail = _verify_s3ttmc(schedule, got, gen)
            else:
                from ..decomp.hooi import hooi

                with tempfile.TemporaryDirectory() as ckpt_dir:
                    result = hooi(
                        gen.tensor,
                        schedule.workload.rank,
                        max_iters=3,
                        seed=schedule.seed,
                        ctx=ctx,
                        checkpoint_dir=ckpt_dir,
                        checkpoint_every=1,
                    )
                reference = hooi(
                    gen.tensor, schedule.workload.rank, max_iters=3,
                    seed=schedule.seed,
                )
                ok, detail = _verify_hooi(schedule, result, reference)
        except TYPED_FAILURES as exc:
            ok, detail = True, f"typed failure: {type(exc).__name__}: {exc}"
        except BaseException as exc:  # noqa: BLE001 - the whole point
            ok = False
            detail = f"UNTYPED failure: {type(exc).__name__}: {exc}"
    finally:
        if timer is not None:
            timer.cancel()
        ctx.close()

    results: List[CheckResult] = [
        _ChaosResult(
            spec=schedule.spec,
            check="chaos:outcome",
            mode="invariant",
            ok=ok,
            detail=detail,
            chaos_seed=schedule.seed,
        )
    ]

    hygiene_ok = True
    hygiene_detail = "budget drained, no shm leaks"
    # Everything must have drained, even on a cancelled/failed run.
    if ctx.budget.allocations:
        hygiene_ok = False
        hygiene_detail = (
            f"budget not drained; held allocations: {ctx.budget.allocations}"
        )
    leaked = set(_shm._LIVE_SEGMENTS) - segments_before
    if leaked:
        hygiene_ok = False
        hygiene_detail = f"leaked shm segments: {sorted(leaked)}"
    results.append(
        _ChaosResult(
            spec=schedule.spec,
            check="chaos:hygiene",
            mode="invariant",
            ok=hygiene_ok,
            detail=hygiene_detail,
            chaos_seed=schedule.seed,
        )
    )

    if trace_path is not None:
        import warnings

        from ..obs.export import write_trace

        try:
            write_trace(ctx.collector, trace_path, append=True)
        except OSError as exc:
            warnings.warn(
                f"could not write chaos trace to {trace_path!r}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
    return results
