"""Decomposition service front door (layer 9).

The multi-tenant job runtime over everything below it: submit
:class:`JobSpec`\\ s, get typed admission decisions before any
allocation, content-addressed cache hits for duplicate work, per-job
budget/deadline/cancel isolation, and bit-for-bit
preemption/resume — in-process via :class:`DecompositionService`, or
over a socket via ``python -m repro.serve`` and :class:`ServeClient`.
See ``docs/serve.md``.
"""

from .admission import check_admission, predict_job_peak_bytes
from .cache import ResultCache, TensorInterner
from .client import ServeClient
from .jobs import (
    JOB_KINDS,
    AdmissionError,
    InvalidJobError,
    JobSpec,
    JobStatus,
    QueueFullError,
    QuotaExceededError,
    ServeError,
    ServiceClosedError,
    TenantQuota,
    UnknownJobError,
)
from .service import DecompositionService

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
    "UnknownJobError",
    "ServiceClosedError",
    "DecompositionService",
    "ServeClient",
    "ResultCache",
    "TensorInterner",
    "check_admission",
    "predict_job_peak_bytes",
]
