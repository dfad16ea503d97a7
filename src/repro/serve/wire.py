"""JSON wire codecs for the serve daemon protocol.

The daemon speaks JSON-lines over TCP: one request object per line, one
response object per line. These helpers convert between
:class:`~repro.serve.jobs.JobSpec` / driver results and plain
JSON-serializable dicts. Tensors cross the wire as explicit
``{order, dim, indices, values}`` payloads — fine for the service's
interactive/smoke uses; bulk ingest should go through the in-process
API.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..formats.ucoo import SparseSymmetricTensor
from .jobs import InvalidJobError, JobSpec, check_finite

__all__ = ["spec_to_wire", "spec_from_wire", "result_to_wire"]

_SPEC_SCALARS = (
    "kind",
    "rank",
    "tenant",
    "kernel",
    "memoize",
    "max_iters",
    "tol",
    "init",
    "seed",
    "svd_method",
    "deadline_seconds",
    "use_cache",
)


def spec_to_wire(spec: JobSpec) -> Dict[str, Any]:
    """Encode a :class:`JobSpec` (tensor included) as a JSON-safe dict."""
    payload: Dict[str, Any] = {
        name: getattr(spec, name) for name in _SPEC_SCALARS
    }
    payload["tensor"] = {
        "order": int(spec.tensor.order),
        "dim": int(spec.tensor.dim),
        "indices": np.asarray(spec.tensor.indices).tolist(),
        "values": np.asarray(spec.tensor.values).tolist(),
    }
    if spec.factor is not None:
        payload["factor"] = np.asarray(spec.factor).tolist()
    return payload


def spec_from_wire(payload: Dict[str, Any]) -> JobSpec:
    """Decode a :func:`spec_to_wire` payload back into a :class:`JobSpec`.

    The tensor goes through the in-process constructor's checks: rows are
    canonicalized (a client may send them unsorted and in any order) and
    duplicate coordinates are refused. A malformed payload — a missing
    field, a wrong index width or type, an out-of-range index, a
    duplicate row, a non-finite value or factor entry — raises
    :class:`~repro.serve.jobs.InvalidJobError` naming what is wrong.
    """
    try:
        tensor_payload = payload["tensor"]
        order = int(tensor_payload["order"])
        indices = np.asarray(tensor_payload["indices"])
        if indices.shape == (0,):  # JSON drops the width of zero rows
            indices = indices.reshape(0, order)
        if indices.size and indices.dtype.kind not in "iu":
            raise ValueError(f"indices must be integers, got {indices.dtype}")
        values = np.asarray(tensor_payload["values"], dtype=np.float64)
        check_finite("tensor values", values)
        tensor = SparseSymmetricTensor(
            order,
            int(tensor_payload["dim"]),
            indices,
            values,
        )
        factor = payload.get("factor")
        if factor is not None:
            factor = np.asarray(factor, dtype=np.float64)
            check_finite("factor", factor)
    except InvalidJobError:
        raise
    except KeyError as exc:
        raise InvalidJobError(f"spec payload misses field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidJobError(f"malformed spec payload: {exc}") from exc
    kwargs: Dict[str, Any] = {
        name: payload[name] for name in _SPEC_SCALARS if name in payload
    }
    return JobSpec(tensor=tensor, factor=factor, **kwargs)


def result_to_wire(kind: str, result: Any) -> Dict[str, Any]:
    """Serialize a driver result for the daemon's ``result`` reply."""
    if kind == "s3ttmc":
        data = np.asarray(result.data)
        return {
            "kind": kind,
            "data": data.tolist(),
            "shape": list(data.shape),
            "checksum": float(data.sum()),
        }
    return {
        "kind": kind,
        "factor": np.asarray(result.factor).tolist(),
        "relative_error": float(result.relative_error),
        "converged": bool(result.converged),
        "algorithm": result.algorithm,
    }
