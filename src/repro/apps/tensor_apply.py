"""Symmetric tensor–vector products via rank-1 S³TTMc.

``apply(X, x) = X ×₂ xᵀ ×₃ xᵀ … ×_N xᵀ`` (a vector on every mode but one)
is the workhorse of symmetric tensor eigencomputations ([16]'s GPU
use case) and hypergraph spectral methods. For a rank-1 "factor" the
compact intermediate tensors have ``S_{l,1} = 1`` entry each, so the
SymProp kernel degenerates to exactly the right algorithm — we simply call
it with a one-column matrix.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.plan import TTMcPlan
from ..core.s3ttmc import SymmetricInput, _as_ucoo, s3ttmc

__all__ = ["symmetric_apply"]


def symmetric_apply(
    tensor: SymmetricInput,
    vector: np.ndarray,
    *,
    plan: Optional[TTMcPlan] = None,
) -> np.ndarray:
    """``y_i = Σ_{i∈nz} X(i, j_2..j_N) x_{j_2} ⋯ x_{j_N}`` — ``X x^{N-1}``.

    Returns a length-``I`` vector. Reuses the tensor's cached S³TTMc plan,
    so repeated applies (power iterations) cost only the numeric work.
    """
    ucoo = _as_ucoo(tensor)
    vector = np.asarray(vector, dtype=np.float64).reshape(-1)
    if vector.shape[0] != ucoo.dim:
        raise ValueError(f"vector must have length {ucoo.dim}")
    y = s3ttmc(ucoo, vector[:, None], plan=plan)
    return y.unfolding[:, 0].copy()
