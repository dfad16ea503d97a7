"""Memory-wall-aware admission control (decide before allocating).

The service refuses work it can *prove* will not fit, using the same
closed-form :mod:`repro.perfmodel.memory` accounting the paper uses to
explain its OOM columns — most importantly the SVD-side expansion of
``Y_p`` to the full ``I x R^{N-1}`` unfolding that walls HOOI under
``svd_method="expand"``. Prediction happens on the spec alone: a
rejected job never allocates a byte, never touches a backend, and the
caller gets a typed :class:`~repro.serve.jobs.QuotaExceededError`
carrying the exact predicted/limit numbers.
"""

from __future__ import annotations

from typing import Optional

from ..perfmodel.memory import kernel_footprint, worker_footprint
from .jobs import JobSpec, QuotaExceededError, TenantQuota

__all__ = ["predict_job_peak_bytes", "check_admission"]

_FLOAT = 8
_INT = 8

#: Kernel names whose lattice kernels share SymProp's compact-footprint
#: model (the exec-compiled kernels evaluate the same plan).
_COMPACT_KERNELS = {None, "generic", "symprop", "compiled"}


def predict_job_peak_bytes(
    spec: JobSpec,
    *,
    execution: str = "serial",
    n_workers: Optional[int] = None,
    nz_batch: int = 512,
) -> int:
    """Predicted peak resident bytes of running ``spec``.

    The sum of the operands the driver must hold (tensor + factor) and
    the dominant transient of the algorithm:

    * every kind pays the S3TTMc kernel footprint (compact output +
      per-batch lattice intermediates);
    * ``hooi`` with ``svd_method="expand"`` additionally pays the
      ``hooi-svd`` expansion — the full ``Y_(1)`` unfolding — which is
      the memory wall this admission gate exists to refuse (the served
      default, ``"compact"``, never expands);
    * parallel executions add each worker's resident footprint (one
      owned shard plus its row-block per worker).

    This is a *model*, deliberately conservative and cheap (closed-form,
    no allocation): the enforced per-job budget catches anything the
    model missed at run time.
    """
    tensor = spec.tensor
    dim, order, unnz = int(tensor.dim), int(tensor.order), int(tensor.unnz)
    rank = spec.effective_rank
    operands = unnz * (order * _INT + _FLOAT) + dim * rank * _FLOAT

    family = "symprop" if spec.kernel in _COMPACT_KERNELS else "css"
    peak = kernel_footprint(
        family, dim, order, rank, unnz, nz_batch=nz_batch
    ).total
    if spec.kind == "hooi" and spec.svd_method == "expand":
        svd = kernel_footprint(
            "hooi-svd", dim, order, rank, unnz, nz_batch=nz_batch
        ).total
        peak = max(peak, svd)
    if execution == "process" and (n_workers or 0) > 1:
        workers = int(n_workers)
        per_worker = worker_footprint(
            dim,
            order,
            rank,
            unnz,
            n_workers=workers,
            nz_batch=nz_batch,
        ).total
        peak = max(peak, workers * per_worker)
    return int(operands + peak)


def check_admission(
    spec: JobSpec,
    quota: TenantQuota,
    *,
    execution: str = "serial",
    n_workers: Optional[int] = None,
) -> int:
    """Admit ``spec`` under ``quota`` or raise a typed admission error.

    Returns the predicted peak bytes (recorded on the job for
    predicted-vs-measured reporting). Queue-depth limits are enforced by
    the service itself, which owns the queues.
    """
    predicted = predict_job_peak_bytes(
        spec, execution=execution, n_workers=n_workers
    )
    if quota.memory_bytes is not None and predicted > int(quota.memory_bytes):
        raise QuotaExceededError(spec.tenant, predicted, int(quota.memory_bytes))
    return predicted
