"""Content-addressed caches: finished results and interned tensors.

Both caches key on :func:`repro.core.plan.content_fingerprint` — the
full (dims, order, indices, values) digest — never on the pattern-only
plan stamp, so same-pattern/different-values tensors can never alias
(the bug the serve layer's admission of arbitrary tenant data exposed).

Two layers of reuse, in the spirit of SySTeC's compile-once-per-structure
model:

* :class:`TensorInterner` maps a content fingerprint to a canonical
  tensor *object*. Content-identical submissions resolve to the same
  object, so everything keyed on object identity or generation — the
  per-tensor plan memo, the shared :class:`~repro.runtime.context.PlanCache`,
  the process backend's shipped-tensor token — hits warm. A duplicate
  submission pays zero symbolic cost and zero re-shipping.
* :class:`ResultCache` maps ``(content fingerprint, driver config)`` to
  a finished result. Only deterministic specs participate (see
  :meth:`~repro.serve.jobs.JobSpec.deterministic`), so a cached answer
  is bit-identical to what rerunning the job would produce.

Both are bounded LRU and thread-safe. The service keeps one of each on
its event loop; every job process keeps its own interner, so a tensor's
plans stay warm in the process that runs its jobs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional, Tuple

from ..core.plan import content_fingerprint
from ..formats.ucoo import SparseSymmetricTensor

__all__ = ["TensorInterner", "ResultCache"]


class TensorInterner:
    """Canonicalize content-identical tensors to one object (bounded LRU)."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, SparseSymmetricTensor]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def intern(
        self, tensor: SparseSymmetricTensor, fingerprint: Optional[str] = None
    ) -> Tuple[str, SparseSymmetricTensor]:
        """Return ``(fingerprint, canonical tensor)`` for ``tensor``;
        ``fingerprint`` is its content fingerprint when already known."""
        if fingerprint is None:
            fingerprint = content_fingerprint(tensor)
        with self._lock:
            canonical = self._entries.get(fingerprint)
            if canonical is not None:
                self._entries.move_to_end(fingerprint)
                self.hits += 1
                return fingerprint, canonical
            self.misses += 1
            self._entries[fingerprint] = tensor
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return fingerprint, tensor

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ResultCache:
    """Finished-result cache keyed on full content + config (bounded LRU)."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> Optional[Any]:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return None

    def put(self, key: tuple, result: Any) -> None:
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
