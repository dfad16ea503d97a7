"""Hypergraph substrate: structure, adjacency tensors, clustering."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".hypergraph": ("Hypergraph",),
        ".io": ("read_hyperedges", "write_hyperedges"),
        ".adjacency": ("adjacency_tensor", "dummy_node_count"),
        ".generators": ("planted_partition_hypergraph",),
        ".clustering": ("kmeans", "cluster_factor", "normalized_mutual_information"),
    },
)
