"""Combinatorial primitives for symmetric tensor storage and counting.

This module provides exact integer combinatorics used throughout SymProp:
binomial coefficients, the compact symmetric storage size
``S_{N,I} = C(N+I-1, N)`` (Table I of the paper), and permutation counts of
index multisets (the entries of the diagonal multiplicity matrix ``M`` of
Property 3).

All functions operate on Python ints (exact) or NumPy integer arrays
(vectorized, ``int64``); overflow-prone sizes such as ``I**N`` are computed
as Python ints when exactness matters.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "binomial",
    "sym_storage_size",
    "dense_size",
    "permutation_counts_array",
    "storage_compression_ratio",
]


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient ``C(n, k)``; zero outside the triangle."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def sym_storage_size(order: int, dim: int) -> int:
    """Compact storage size ``S_{N,I} = C(N+I-1, N)`` of a symmetric tensor.

    This is the number of index-ordered-unique (IOU) entries of an order-
    ``order`` symmetric tensor with dimension size ``dim`` — the multiset
    coefficient "dim multichoose order".

    An order-0 tensor is a scalar (size 1). ``dim == 0`` gives size 0 for
    any positive order.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if dim < 0:
        raise ValueError(f"dim must be >= 0, got {dim}")
    if order == 0:
        return 1
    return binomial(order + dim - 1, order)


def dense_size(order: int, dim: int) -> int:
    """Full (redundant) entry count ``I**N`` of a dense hypercubical tensor."""
    if order < 0 or dim < 0:
        raise ValueError("order and dim must be >= 0")
    return dim**order


def permutation_counts_array(indices: np.ndarray) -> np.ndarray:
    """Distinct-ordering counts ``N! / (k_1! ... k_m!)`` of the rows of
    ``indices``, where ``k_j`` are a row's value frequencies — the
    diagonal of ``M = EᵀE`` in Property 3.

    Parameters
    ----------
    indices:
        ``(n, order)`` integer array; rows need not be sorted (permutation
        count is ordering-invariant).

    Returns
    -------
    ``(n,)`` int64 array of distinct-ordering counts.
    """
    indices = np.asarray(indices)
    if indices.ndim != 2:
        raise ValueError(f"expected 2-D (n, order) array, got shape {indices.shape}")
    n, order = indices.shape
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    srt = np.sort(indices, axis=1)
    # Run-length encode each sorted row: positions where the value changes.
    change = np.ones((n, order), dtype=bool)
    change[:, 1:] = srt[:, 1:] != srt[:, :-1]
    # Every row starts a run (change[:, 0] is True), so flattened run
    # boundaries never straddle rows and diff gives in-row run lengths.
    starts = np.flatnonzero(change.ravel())
    lengths = np.diff(starts, append=indices.size)
    factorials = np.array([math.factorial(k) for k in range(order + 1)], dtype=np.int64)
    runs_per_row = change.sum(axis=1)
    row_offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(runs_per_row[:-1], out=row_offsets[1:])
    denom = np.multiply.reduceat(factorials[lengths], row_offsets)
    return math.factorial(order) // denom


def storage_compression_ratio(order: int, dim: int) -> float:
    """Ratio ``I**N / S_{N,I}`` — how much compact storage saves.

    Approaches ``N!`` as ``I → ∞`` (Section II-B).
    """
    s = sym_storage_size(order, dim)
    if s == 0:
        raise ValueError("empty tensor has no compression ratio")
    return dense_size(order, dim) / s
