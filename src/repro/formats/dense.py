"""Plain dense tensors: unfolding, refolding, norms, TTM.

These are the ground-truth objects the test suite checks every sparse
kernel against. Mode numbering is 0-based throughout the library (the paper
uses 1-based; its "mode-1 unfolding" is our ``unfold(x, 0)``).

The unfolding convention matches the Kronecker flattening of Eq. (3):
``unfold(x, n)[i_n, lin(i \\ i_n)]`` with the remaining modes linearized in
row-major (C) order, *preserving their original relative order*.
"""

from __future__ import annotations

import numpy as np

__all__ = ["unfold", "refold", "ttm", "ttmc_all_but_one"]


def unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` matricization ``X_(mode)``.

    Moves ``mode`` to the front and flattens the rest in C order, so column
    ``j`` corresponds to the row-major linearization of the remaining
    indices in their original relative order.
    """
    tensor = np.asarray(tensor)
    if not 0 <= mode < tensor.ndim:
        raise ValueError(f"mode {mode} out of range for order-{tensor.ndim} tensor")
    return np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)


def refold(matrix: np.ndarray, mode: int, shape: tuple) -> np.ndarray:
    """Inverse of :func:`unfold` for a target tensor ``shape``."""
    shape = tuple(shape)
    moved = (shape[mode],) + shape[:mode] + shape[mode + 1 :]
    return np.moveaxis(np.asarray(matrix).reshape(moved), 0, mode)


def ttm(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Tensor-times-matrix ``Y = X ×_mode Mᵀ`` (Eq. 1): ``Y_(mode) = Mᵀ X_(mode)``.

    ``matrix`` is ``(I_mode, R)``; the result has extent ``R`` along ``mode``.
    """
    tensor = np.asarray(tensor)
    matrix = np.asarray(matrix)
    if matrix.shape[0] != tensor.shape[mode]:
        raise ValueError(
            f"matrix rows {matrix.shape[0]} != tensor extent {tensor.shape[mode]} on mode {mode}"
        )
    unfolded = unfold(tensor, mode)
    result = matrix.T @ unfolded
    new_shape = list(tensor.shape)
    new_shape[mode] = matrix.shape[1]
    return refold(result, mode, tuple(new_shape))


def ttmc_all_but_one(tensor: np.ndarray, matrix: np.ndarray, skip_mode: int = 0) -> np.ndarray:
    """TTM chain with the same matrix on every mode except ``skip_mode``.

    The dense reference for S³TTMc (Eq. 2). Returns the full order-``N``
    tensor with extent ``I`` on ``skip_mode`` and ``R`` elsewhere.
    """
    result = np.asarray(tensor)
    for mode in range(result.ndim):
        if mode == skip_mode:
            continue
        result = ttm(result, matrix, mode)
    return result
