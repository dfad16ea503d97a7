"""Hypergraph node centralities from the symmetric adjacency tensor.

Z-eigenvector centrality (Benson's hypergraph generalization of
eigenvector centrality): the positive vector with
``X c^{N-1} = λ c``, computed by a positivity-preserving power iteration
on the adjacency tensor (rank-1 SymProp applies).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.plan import get_plan
from ..core.s3ttmc import SymmetricInput, _as_ucoo
from .tensor_apply import symmetric_apply

__all__ = ["z_eigenvector_centrality"]


def z_eigenvector_centrality(
    tensor: SymmetricInput,
    *,
    max_iters: int = 1000,
    tol: float = 1e-12,
    n_real_nodes: Optional[int] = None,
) -> np.ndarray:
    """Positive Z-eigenvector of a non-negative symmetric tensor.

    Power iteration ``c ← normalize((X c^{N-1})^{1/(N-1)})`` on the
    positive cone (the NQI-style map, which keeps iterates strictly
    positive and converges for irreducible non-negative tensors). Returns
    a unit-1-norm centrality vector; dummy-node entries are zeroed and the
    rest renormalized when ``n_real_nodes`` is given.
    """
    ucoo = _as_ucoo(tensor)
    if ucoo.values.min(initial=0.0) < 0:
        raise ValueError("centrality requires a non-negative tensor")
    plan = get_plan(ucoo)
    order = ucoo.order
    c = np.full(ucoo.dim, 1.0 / ucoo.dim)
    exponent = 1.0 / (order - 1) if order > 1 else 1.0
    for _ in range(max_iters):
        y = symmetric_apply(ucoo, c, plan=plan)
        # Keep strictly inside the cone: nodes with zero score stay zero.
        y = np.maximum(y, 0.0) ** exponent
        total = y.sum()
        if total == 0:
            break
        y /= total
        if np.linalg.norm(y - c, 1) < tol:
            c = y
            break
        c = y
    if n_real_nodes is not None:
        c = c[:n_real_nodes].copy()
        total = c.sum()
        if total > 0:
            c /= total
    return c
