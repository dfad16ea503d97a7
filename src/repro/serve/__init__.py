"""Decomposition service front door (layer 9).

The multi-tenant job runtime over everything below it: submit
:class:`JobSpec`\\ s, get typed admission decisions before any
allocation, content-addressed cache hits for duplicate work, per-job
budget/deadline/cancel isolation, and bit-for-bit
preemption/resume — in-process via :class:`DecompositionService`, or
over a socket via ``python -m repro.serve`` and :class:`ServeClient`.
See ``docs/serve.md``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".jobs": (
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
        ),
        ".service": ("DecompositionService",),
        ".client": ("ServeClient",),
        ".cache": ("ResultCache", "TensorInterner"),
        ".admission": ("check_admission", "predict_job_peak_bytes"),
    },
)
