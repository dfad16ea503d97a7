"""Tucker objective for symmetric decompositions.

With orthonormal ``U``, the least-squares cost collapses to
``f(X̂) = ‖X‖² − ‖C‖²`` (Section V) — no reconstruction needed. Both norms
are computed from compact storage with multiplicity weighting.
"""

from __future__ import annotations

import numpy as np

from ..formats.partial_sym import PartiallySymmetricTensor

__all__ = ["tucker_objective", "relative_error", "fit"]


def tucker_objective(
    norm_x_squared: float, core: PartiallySymmetricTensor
) -> float:
    """``f = ‖X‖² − ‖C‖²`` given the cached input norm and the compact core."""
    return norm_x_squared - core.norm_squared()


def relative_error(norm_x_squared: float, core: PartiallySymmetricTensor) -> float:
    """``‖X − X̂‖ / ‖X‖`` (clamped at 0 against round-off)."""
    if norm_x_squared <= 0.0:
        return 0.0
    f = max(tucker_objective(norm_x_squared, core), 0.0)
    return float(np.sqrt(f / norm_x_squared))


def fit(norm_x_squared: float, core: PartiallySymmetricTensor) -> float:
    """``1 − relative_error`` — the conventional Tucker fit score."""
    return 1.0 - relative_error(norm_x_squared, core)

