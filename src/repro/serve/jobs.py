"""Job specifications, tenant quotas, and the serve error taxonomy.

A :class:`JobSpec` is everything the service needs to run one unit of
work — a full decomposition (``hooi`` / ``hoqri``) or a single kernel
invocation (``s3ttmc``) — on behalf of one tenant. Specs are plain data:
they carry the tensor and the exact driver configuration, so a completed
job is reproducible by calling the underlying driver directly with the
same arguments (the end-to-end tests assert bitwise equality).

Errors follow the runtime's typed-taxonomy convention
(:mod:`repro.runtime.health`): everything the service raises derives
from :class:`ServeError`, and admission refusals — the decisions made
*before* any allocation — derive from :class:`AdmissionError` so callers
can distinguish "never started" from "started and failed".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core.engine import KERNELS
from ..decomp.hooi import HOOI_KERNELS, HOOI_SVD_METHODS
from ..decomp.hoqri import HOQRI_KERNELS
from ..formats.ucoo import SparseSymmetricTensor

__all__ = [
    "JOB_KINDS",
    "JobSpec",
    "JobStatus",
    "TenantQuota",
    "ServeError",
    "AdmissionError",
    "QuotaExceededError",
    "QueueFullError",
    "InvalidJobError",
    "check_finite",
    "UnknownJobError",
    "ServiceClosedError",
]

#: Job kinds the service knows how to execute.
JOB_KINDS = ("s3ttmc", "hooi", "hoqri")

#: ``kernel`` values each kind's driver accepts: the engine mode for
#: ``s3ttmc``, the algorithm family for the decompositions.
_JOB_KERNELS = {"s3ttmc": KERNELS, "hooi": HOOI_KERNELS, "hoqri": HOQRI_KERNELS}


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------


class ServeError(RuntimeError):
    """Base class for every error the serve layer raises."""


class AdmissionError(ServeError):
    """A job was refused at submission time, before any allocation."""


class QuotaExceededError(AdmissionError):
    """Predicted peak memory exceeds the tenant's quota.

    Raised by :func:`repro.serve.admission.check_admission` from the
    closed-form :mod:`repro.perfmodel` footprints — the job never
    allocates a byte.
    """

    def __init__(self, tenant: str, predicted_bytes: int, limit_bytes: int) -> None:
        self.tenant = tenant
        self.predicted_bytes = int(predicted_bytes)
        self.limit_bytes = int(limit_bytes)
        super().__init__(
            f"tenant {tenant!r}: predicted peak {self.predicted_bytes} B "
            f"exceeds quota {self.limit_bytes} B"
        )

    def __reduce__(self):
        args = (self.tenant, self.predicted_bytes, self.limit_bytes)
        return type(self), args, self.__dict__


class QueueFullError(AdmissionError):
    """The tenant already has ``max_queued`` jobs waiting."""

    def __init__(self, tenant: str, queued: int, limit: int) -> None:
        self.tenant = tenant
        self.queued = int(queued)
        self.limit = int(limit)
        super().__init__(
            f"tenant {tenant!r}: {queued} jobs queued (limit {limit})"
        )

    def __reduce__(self):
        return type(self), (self.tenant, self.queued, self.limit), self.__dict__


class InvalidJobError(ServeError, ValueError):
    """The spec is malformed (unknown kind, missing rank/factor, ...)."""


def check_finite(name: str, array: np.ndarray) -> None:
    """Raise :class:`InvalidJobError` naming ``name`` if ``array`` holds a
    NaN or an infinity: a non-finite input poisons every output entry."""
    bad = int(array.size - np.count_nonzero(np.isfinite(array)))
    if bad:
        raise InvalidJobError(f"{name} must be finite ({bad} NaN or inf entries)")


class UnknownJobError(ServeError, KeyError):
    """No job with that id (never submitted, or already evicted)."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        super().__init__(f"unknown job {job_id!r}")

    def __reduce__(self):
        return type(self), (self.job_id,), self.__dict__


class ServiceClosedError(ServeError):
    """The service is shutting down and accepts no new work."""


# ---------------------------------------------------------------------------
# Quotas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits.

    ``memory_bytes`` caps the *predicted* peak of any single job (and
    becomes the job's enforced :class:`~repro.runtime.budget.MemoryBudget`
    limit); ``None`` admits anything and runs accounting-only.
    ``max_queued`` bounds the tenant's waiting jobs.
    ``deadline_seconds`` is the default wall-clock deadline applied to
    the tenant's jobs when the spec carries none.
    """

    memory_bytes: Optional[int] = None
    max_queued: int = 32
    deadline_seconds: Optional[float] = None


# ---------------------------------------------------------------------------
# Job specification
# ---------------------------------------------------------------------------


@dataclass
class JobSpec:
    """One unit of work: a decomposition or a kernel call for a tenant.

    ``kind`` selects the driver: ``"hooi"`` / ``"hoqri"`` need ``rank``;
    ``"s3ttmc"`` needs ``factor``. Remaining fields mirror the driver
    keyword arguments one-for-one, so a spec is exactly reproducible by
    a direct call. ``use_cache=False`` opts a submission out of the
    content-addressed result cache (it still populates neither).
    """

    kind: str
    tensor: SparseSymmetricTensor
    rank: Optional[int] = None
    factor: Optional[np.ndarray] = None
    tenant: str = "default"
    kernel: Optional[str] = None  # driver default when None
    memoize: str = "global"
    max_iters: Optional[int] = None  # driver default when None
    tol: float = 1e-8
    init: str = "random"
    seed: Optional[int] = None
    svd_method: str = "compact"  # hooi only
    deadline_seconds: Optional[float] = None
    use_cache: bool = True

    def validate(self) -> None:
        if self.kind not in JOB_KINDS:
            raise InvalidJobError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            )
        allowed = _JOB_KERNELS[self.kind]
        if self.kernel is not None and self.kernel not in allowed:
            raise InvalidJobError(
                f"{self.kind} jobs take kernel in {allowed}, got {self.kernel!r}"
            )
        if not isinstance(self.tensor, SparseSymmetricTensor):
            raise InvalidJobError(
                "tensor must be a SparseSymmetricTensor, got "
                f"{type(self.tensor).__name__}"
            )
        check_finite("tensor values", self.tensor.values)
        if self.factor is not None:
            check_finite("factor", np.asarray(self.factor, dtype=np.float64))
        if self.kind == "s3ttmc":
            if self.factor is None:
                raise InvalidJobError("s3ttmc jobs require a factor matrix")
            factor = np.asarray(self.factor)
            if factor.ndim != 2 or factor.shape[0] != self.tensor.dim:
                raise InvalidJobError(
                    f"factor shape {factor.shape} does not match tensor dim "
                    f"{self.tensor.dim}"
                )
        else:
            if self.rank is None or int(self.rank) < 1:
                raise InvalidJobError(f"{self.kind} jobs require rank >= 1")
            if int(self.rank) > self.tensor.dim:
                raise InvalidJobError(
                    f"rank {self.rank} exceeds the tensor dimension "
                    f"{self.tensor.dim}"
                )
            if self.max_iters is not None and int(self.max_iters) < 1:
                raise InvalidJobError(f"{self.kind} jobs require max_iters >= 1")
            if self.kind == "hooi" and self.svd_method not in HOOI_SVD_METHODS:
                raise InvalidJobError(
                    f"hooi jobs take svd_method in {HOOI_SVD_METHODS}, "
                    f"got {self.svd_method!r}"
                )

    @property
    def effective_rank(self) -> int:
        """Target rank (the factor's column count for kernel jobs)."""
        if self.kind == "s3ttmc":
            return int(np.asarray(self.factor).shape[1])
        return int(self.rank)

    def deterministic(self) -> bool:
        """Whether two runs of this spec are guaranteed bit-identical.

        Kernel jobs always are (no randomness); decomposition jobs are
        once the initialization is pinned — an explicit seed, or a
        deterministic init like ``"hosvd"``. Non-deterministic jobs are
        never served from (nor stored into) the result cache: two
        seedless submissions are *allowed* to differ, so aliasing them
        would silently change semantics.
        """
        if self.kind == "s3ttmc":
            return True
        return self.seed is not None or self.init != "random"

    def config_key(self) -> Tuple:
        """Hashable driver configuration (everything but the tensor)."""
        factor_part: Optional[bytes] = None
        if self.factor is not None:
            factor_part = np.ascontiguousarray(
                self.factor, dtype=np.float64
            ).tobytes()
        return (
            self.kind,
            self.rank,
            factor_part,
            self.kernel,
            self.memoize,
            self.max_iters,
            float(self.tol),
            self.init,
            self.seed,
            self.svd_method if self.kind == "hooi" else None,
        )

    def driver_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for the underlying driver call."""
        if self.kind == "s3ttmc":
            kwargs: Dict[str, Any] = {"memoize": self.memoize}
            if self.kernel is not None:
                kwargs["kernel"] = self.kernel
            return kwargs
        kwargs = {
            "tol": float(self.tol),
            "init": self.init,
            "seed": self.seed,
            "memoize": self.memoize,
        }
        if self.kernel is not None:
            kwargs["kernel"] = self.kernel
        if self.max_iters is not None:
            kwargs["max_iters"] = int(self.max_iters)
        if self.kind == "hooi":
            kwargs["svd_method"] = self.svd_method
        return kwargs


# ---------------------------------------------------------------------------
# Job status snapshots
# ---------------------------------------------------------------------------

#: Job lifecycle states. ``queued → running → done|failed|cancelled``;
#: a preempted job transits ``running → queued`` and counts a preemption.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


@dataclass
class JobStatus:
    """Point-in-time public view of one job (safe to serialize)."""

    job_id: str
    tenant: str
    kind: str
    state: str
    cache_hit: bool = False
    predicted_peak_bytes: int = 0
    measured_peak_bytes: int = 0
    preemptions: int = 0
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "kind": self.kind,
            "state": self.state,
            "cache_hit": self.cache_hit,
            "predicted_peak_bytes": self.predicted_peak_bytes,
            "measured_peak_bytes": self.measured_peak_bytes,
            "preemptions": self.preemptions,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
