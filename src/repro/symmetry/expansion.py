"""Expansion matrix ``E`` and multiplicity matrix ``M = EᵀE`` (Properties 2–3).

``E ∈ {0,1}^{R^l × S_{l,R}}`` maps compact symmetric storage to the full
row-major layout: ``full = E @ compact``. Property 3 shows ``EᵀE`` is
diagonal with the permutation multiplicities on the diagonal; SymProp never
materializes ``M``, only the vector ``p`` (available from
:class:`~repro.symmetry.tables.IndexTables`). We build ``E`` explicitly
(as ``scipy.sparse``) for the faithful HOOI SVD path and for tests.
"""

from __future__ import annotations

import numpy as np

from .combinatorics import dense_size
from .tables import IndexTables, get_tables

__all__ = [
    "expansion_matrix",
    "multiplicity_vector",
    "expand_compact",
    "compact_from_full",
]


def expansion_matrix(order: int, dim: int) -> "scipy.sparse.csr_matrix":
    """The sparse 0/1 expansion matrix ``E`` of shape ``(dim**order, S_{order,dim})``.

    Row ``j`` (a full row-major linear index) has a single 1 in the column of
    the IOU obtained by sorting ``j``'s tuple.
    """
    import scipy.sparse as sp

    tables = get_tables(order, dim)
    locs = tables.expansion_locs()
    n_full = dense_size(order, dim)
    data = np.ones(n_full, dtype=np.float64)
    rows = np.arange(n_full, dtype=np.int64)
    return sp.csr_matrix((data, (rows, locs)), shape=(n_full, tables.size))


def multiplicity_vector(order: int, dim: int) -> np.ndarray:
    """Diagonal of ``M = EᵀE`` — permutation counts per IOU (the vector ``p``)."""
    return get_tables(order, dim).multiplicity.astype(np.float64)


def expand_compact(compact: np.ndarray, order: int, dim: int) -> np.ndarray:
    """Expand compact symmetric storage to the full row-major array.

    ``compact`` may be 1-D (``(S,)`` — one symmetric tensor) or 2-D
    (``(rows, S)`` — e.g. ``Y_p(1)``, expanded row-wise to
    ``(rows, dim**order)``).
    """
    tables = get_tables(order, dim)
    locs = tables.expansion_locs()
    compact = np.asarray(compact)
    if compact.shape[-1] != tables.size:
        raise ValueError(
            f"last axis must be S_{{{order},{dim}}}={tables.size}, got {compact.shape}"
        )
    return compact[..., locs]


def compact_from_full(
    full: np.ndarray, order: int, dim: int, *, check_symmetry: bool = True, atol: float = 1e-10
) -> np.ndarray:
    """Inverse of :func:`expand_compact` for symmetric input.

    ``full`` has last axis ``dim**order`` (row-major). If ``check_symmetry``
    is set, verifies that all permutations of each IOU agree within ``atol``.
    """
    tables = get_tables(order, dim)
    locs = tables.expansion_locs()
    full = np.asarray(full)
    if full.shape[-1] != dense_size(order, dim):
        raise ValueError("last axis must be dim**order")
    # Representative position of each IOU: first occurrence in `locs`.
    first = _first_occurrence(locs, tables)
    compact = full[..., first]
    if check_symmetry:
        recon = compact[..., locs]
        if not np.allclose(recon, full, atol=atol, rtol=0.0):
            raise ValueError("input is not symmetric within tolerance")
    return compact


def _first_occurrence(locs: np.ndarray, tables: IndexTables) -> np.ndarray:
    order = np.argsort(locs, kind="stable")
    sorted_locs = locs[order]
    starts = np.ones(sorted_locs.shape[0], dtype=bool)
    starts[1:] = sorted_locs[1:] != sorted_locs[:-1]
    first = order[starts]
    if first.shape[0] != tables.size:
        raise AssertionError("expansion map does not cover all IOU locations")
    return first
