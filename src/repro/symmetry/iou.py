"""Index-ordered-unique (IOU) index enumeration and linearization.

Compact storage of a dense symmetric tensor (Section II-B of the paper)
keeps only the IOU entries — indices ``j_1 <= j_2 <= ... <= j_N`` — laid out
consecutively in lexicographical order. This module provides:

* :func:`enumerate_iou` — all IOU tuples of a given order/dim in lex order,
  together with the *drop-last parent* location and *last index* arrays that
  drive the symmetric outer-product kernels (Algorithm 1);
* :func:`rank_iou_array` — O(N)-per-tuple lex positions of IOU tuples
  (the "index mapping" the paper's metaprogramming avoids; we need it for
  scattered access and as the baseline of the index-iteration ablation);
* :func:`full_linear_index` — row-major linearization of full (expanded)
  indices, matching the Kronecker-product flattening of Eq. (3).

The enumeration order produced here is the single source of truth for every
compact layout in the library; all other modules must agree with it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .combinatorics import sym_storage_size

__all__ = [
    "enumerate_iou",
    "iou_layout",
    "rank_iou_array",
    "full_linear_index",
]

_INDEX_DTYPE = np.int64


def enumerate_iou(order: int, dim: int) -> np.ndarray:
    """All IOU index tuples of an order-``order`` dim-``dim`` symmetric tensor.

    Returns an ``(S_{order,dim}, order)`` int64 array whose rows are the
    non-decreasing tuples in lexicographical order — exactly the layout of
    compact symmetric storage.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order == 0:
        return np.zeros((1, 0), dtype=_INDEX_DTYPE)
    rows, _, _ = iou_layout(order, dim)
    return rows


def iou_layout(order: int, dim: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """IOU enumeration plus the kernel index tables.

    Returns ``(indices, parent_loc, last_index)`` where

    * ``indices`` is the ``(S, order)`` lex-ordered IOU array;
    * ``parent_loc[s]`` is the lex position of ``indices[s, :-1]`` in the
      order-``order-1`` enumeration (the *drop-last parent*);
    * ``last_index[s] = indices[s, -1]``.

    These two tables turn the level-``l`` symmetric outer product
    ``K_l[s] = U[v, last_index[s]] * K_{l-1}[parent_loc[s]]`` (Eq. 8 /
    Algorithm 1) into a pair of vectorized gathers.

    The construction is itself the inductive proof of the layout property:
    extending each order-``l-1`` IOU tuple, in lex order, by every feasible
    last index produces the order-``l`` lex enumeration.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if dim < 0:
        raise ValueError(f"dim must be >= 0, got {dim}")
    indices = np.arange(dim, dtype=_INDEX_DTYPE).reshape(dim, 1)
    parent_loc = np.zeros(dim, dtype=_INDEX_DTYPE)
    last_index = indices[:, 0].copy()
    for _ in range(2, order + 1):
        prev = indices
        n_prev, _ = prev.shape
        # Row s of `prev` extends with last ∈ [prev[s, -1], dim); the number
        # of extensions per row is dim - prev[:, -1].
        counts = dim - prev[:, -1]
        parent_loc = np.repeat(np.arange(n_prev, dtype=_INDEX_DTYPE), counts)
        # last index within each parent group runs prev[s,-1] .. dim-1.
        offsets = np.concatenate(([0], np.cumsum(counts)))
        total = int(offsets[-1])
        pos_in_group = np.arange(total, dtype=_INDEX_DTYPE) - offsets[parent_loc]
        last_index = prev[parent_loc, -1] + pos_in_group
        indices = np.concatenate(
            [prev[parent_loc], last_index.reshape(-1, 1)], axis=1
        )
    return indices, parent_loc, last_index


def _rank_prefix_table(order: int, dim: int) -> np.ndarray:
    """Cumulative counting table for IOU ranking.

    ``table[t, v] = sum_{u < v} S_{order-t-1, dim-u}`` for position
    ``t in [0, order)`` and value bound ``v in [0, dim]``: the number of IOU
    tuples that agree with a query on the first ``t`` coordinates and take a
    value ``u < v`` at position ``t`` (given non-decreasing feasibility).
    """
    table = np.zeros((order, dim + 1), dtype=_INDEX_DTYPE)
    for t in range(order):
        remaining = order - t - 1
        counts = np.array(
            [sym_storage_size(remaining, dim - u) for u in range(dim)],
            dtype=_INDEX_DTYPE,
        )
        table[t, 1:] = np.cumsum(counts)
    return table


def rank_iou_array(indices: np.ndarray, dim: int) -> np.ndarray:
    """Vectorized lex ranks of non-decreasing tuples.

    Parameters
    ----------
    indices:
        ``(n, order)`` array of non-decreasing rows with values in
        ``[0, dim)``.
    dim:
        Dimension size.

    Returns
    -------
    ``(n,)`` int64 array of positions in the lex IOU enumeration.
    """
    indices = np.asarray(indices, dtype=_INDEX_DTYPE)
    if indices.ndim != 2:
        raise ValueError(f"expected (n, order) array, got shape {indices.shape}")
    n, order = indices.shape
    if order == 0:
        return np.zeros(n, dtype=_INDEX_DTYPE)
    if n == 0:
        return np.zeros(0, dtype=_INDEX_DTYPE)
    if indices.min(initial=0) < 0 or indices.max(initial=0) >= dim:
        raise ValueError("index value out of range")
    if np.any(indices[:, 1:] < indices[:, :-1]):
        raise ValueError("rows must be non-decreasing (IOU)")
    table = _rank_prefix_table(order, dim)
    ranks = np.zeros(n, dtype=_INDEX_DTYPE)
    lower = np.zeros(n, dtype=_INDEX_DTYPE)
    for t in range(order):
        j = indices[:, t]
        ranks += table[t, j] - table[t, lower]
        lower = j
    return ranks


def full_linear_index(indices: np.ndarray, dim: int) -> np.ndarray:
    """Row-major linearization of full index tuples.

    ``lin(j_1..j_N) = ((j_1*dim + j_2)*dim + ...)*dim + j_N`` — the layout
    produced by flattening chained Kronecker products (Eq. 3) in C order.
    Accepts an ``(n, order)`` array; returns ``(n,)`` int64.
    """
    indices = np.asarray(indices, dtype=_INDEX_DTYPE)
    if indices.ndim == 1:
        indices = indices.reshape(1, -1)
    n, order = indices.shape
    out = np.zeros(n, dtype=_INDEX_DTYPE)
    for t in range(order):
        out = out * dim + indices[:, t]
    return out
