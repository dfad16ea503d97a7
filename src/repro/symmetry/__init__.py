"""Symmetric-tensor combinatorics substrate.

Everything in this package is exact integer/index machinery: compact IOU
layouts, lex ranking, multiset permutation expansion, and the
expansion/multiplicity operators of Properties 2–3.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".combinatorics": (
            "binomial",
            "sym_storage_size",
            "dense_size",
            "permutation_counts_array",
            "storage_compression_ratio",
        ),
        ".iou": (
            "enumerate_iou",
            "iou_layout",
            "rank_iou_array",
            "full_linear_index",
        ),
        ".permutations": (
            "distinct_permutations",
            "count_expanded",
            "expand_iou",
            "canonicalize",
        ),
        ".tables": (
            "IndexTables",
            "get_tables",
        ),
        ".expansion": (
            "expansion_matrix",
            "multiplicity_vector",
            "expand_compact",
            "compact_from_full",
        ),
    },
)
