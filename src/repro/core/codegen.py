"""Index-iteration strategies for compact symmetric tensors.

The paper's Algorithm 1 needs, for every IOU slot of a level-``l`` tensor,
its drop-last parent location and its last index, *without* paying a
per-entry index-mapping cost. The C++ implementation generates the nested
loops with template metaprogramming; this module reproduces the idea and
its ablation with three interchangeable strategies, each computing one
symmetric outer-product step (Eq. 8):

``out[s] = u_row[last(s)] * k_prev[parent(s)]``   for all IOU slots ``s``.

* :func:`codegen_step` — **metaprogramming**: generates Python source with
  ``l`` nested ``for`` loops carrying ``loc_l`` / ``loc_{l-1}`` counters,
  compiles it once per order, and dispatches at run time. The direct analog
  of the paper's ``iterate_`` template (Section III-C3).
* :func:`mapping_step` — **index mapping** baseline ([16]-style): a single
  flat loop that maintains the multi-index with backtracking and *computes*
  the parent location per entry from a ranking table (``O(N + R)`` extra
  work per entry — the overhead the paper eliminates).
* :func:`table_step` — **gather tables**: the vectorized strategy the
  batched kernels use; included in the ablation because it is the
  NumPy-native optimum.

``benchmarks/bench_index_iteration.py`` sweeps orders 2–14 and ranks 3–8
over these, reproducing Section VI-B-4.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict

import numpy as np

from ..symmetry.combinatorics import sym_storage_size
from ..symmetry.iou import _rank_prefix_table
from ..symmetry.tables import get_tables

__all__ = [
    "CODEGEN_VERSION",
    "generate_step_source",
    "codegen_step",
    "mapping_step",
    "table_step",
    "STRATEGIES",
]

#: Version of the step generator; compiled callables are tagged with it
#: (``fn.__codegen_version__``) so plan/profile invalidation can detect a
#: stale compile principledly instead of by identity.
CODEGEN_VERSION = 1

#: Explicit cap on cached step functions. The old cache was an unbounded
#: module dict keyed only on ``order`` and shared by every context; a
#: bounded LRU keeps the sharing (steps are pure functions of ``order``)
#: while making the growth policy explicit.
_CACHE_CAP = 32

_COMPILED: "OrderedDict[int, Callable]" = OrderedDict()
_LOCK = threading.Lock()


def generate_step_source(order: int) -> str:
    """Source of the specialized nested-loop outer-product step.

    Mirrors Algorithm 1: ``order - 1`` outer loops walk the parent tensor
    (incrementing ``loc_p`` once per completed innermost iteration) while
    the innermost loop walks the output (incrementing ``loc_o`` per entry).
    """
    if order < 2:
        raise ValueError("codegen step requires order >= 2")
    lines = [
        f"def _step_{order}(dim, u_row, k_prev, out):",
        "    loc_o = 0",
        "    loc_p = 0",
    ]
    indent = "    "
    prev = None
    for level in range(1, order):
        var = f"i{level}"
        start = "0" if prev is None else prev
        lines.append(f"{indent}for {var} in range({start}, dim):")
        indent += "    "
        prev = var
    lines.append(f"{indent}base = k_prev[loc_p]")
    lines.append(f"{indent}for i{order} in range({prev}, dim):")
    lines.append(f"{indent}    out[loc_o] = u_row[i{order}] * base")
    lines.append(f"{indent}    loc_o += 1")
    lines.append(f"{indent}loc_p += 1")
    return "\n".join(lines) + "\n"


def _compiled_step(order: int) -> Callable:
    with _LOCK:
        fn = _COMPILED.get(order)
        if fn is not None:
            _COMPILED.move_to_end(order)
            return fn
        namespace: dict = {}
        exec(compile(generate_step_source(order), f"<codegen order {order}>", "exec"), namespace)
        fn = namespace[f"_step_{order}"]
        fn.__codegen_version__ = CODEGEN_VERSION
        _COMPILED[order] = fn
        while len(_COMPILED) > _CACHE_CAP:
            _COMPILED.popitem(last=False)
        return fn


def codegen_step(u_row: np.ndarray, k_prev: np.ndarray, order: int, dim: int) -> np.ndarray:
    """One Eq.-8 term via generated nested loops (metaprogramming analog)."""
    out = np.empty(sym_storage_size(order, dim), dtype=np.float64)
    _compiled_step(order)(dim, u_row, k_prev, out)
    return out


def mapping_step(u_row: np.ndarray, k_prev: np.ndarray, order: int, dim: int) -> np.ndarray:
    """One Eq.-8 term via flat iteration with per-entry index mapping.

    Maintains the IOU multi-index with carry/backtracking (the coupled
    for/while pattern of [16]) and *recomputes* the parent location from the
    ranking table at every entry — the overhead Algorithm 1 avoids by
    carrying ``loc_{l-1}`` through the loop nest.
    """
    size = sym_storage_size(order, dim)
    out = np.empty(size, dtype=np.float64)
    table = _rank_prefix_table(order - 1, dim)
    idx = [0] * order
    for s in range(size):
        # Parent location: rank of idx[:-1] computed from scratch, O(order+dim).
        loc_p = 0
        lower = 0
        for t in range(order - 1):
            j = idx[t]
            loc_p += table[t, j] - table[t, lower]
            lower = j
        out[s] = u_row[idx[-1]] * k_prev[loc_p]
        # Advance idx to the next non-decreasing tuple (carry with backtrack).
        pos = order - 1
        idx[pos] += 1
        while pos > 0 and idx[pos] >= dim:
            pos -= 1
            idx[pos] += 1
        if idx[pos] < dim:
            for t in range(pos + 1, order):
                idx[t] = idx[pos]
    return out


def table_step(u_row: np.ndarray, k_prev: np.ndarray, order: int, dim: int) -> np.ndarray:
    """One Eq.-8 term via precomputed gather tables (vectorized)."""
    tables = get_tables(order, dim)
    return u_row[tables.last_index] * k_prev[tables.parent_loc]


STRATEGIES: Dict[str, Callable] = {
    "codegen": codegen_step,
    "mapping": mapping_step,
    "table": table_step,
}
