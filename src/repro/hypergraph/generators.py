"""Synthetic hypergraph generators (stand-ins for the paper's datasets).

Offline reproduction cannot ship contact-school / trivago-clicks /
walmart-trips / stackoverflow / amazon-reviews; these generators produce
hypergraphs matching the statistics that drive kernel cost — node count,
edge count, cardinality distribution — with planted community structure so
clustering applications (the paper's motivating use case) are meaningful.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .hypergraph import Hypergraph

__all__ = ["planted_partition_hypergraph"]


def _sample_cardinalities(
    n_edges: int,
    min_card: int,
    max_card: int,
    rng: np.random.Generator,
    weights: Optional[Sequence[float]] = None,
) -> np.ndarray:
    cards = np.arange(min_card, max_card + 1)
    if weights is None:
        # Real hypergraphs skew heavily toward small edges: geometric decay.
        weights = 0.5 ** np.arange(cards.shape[0])
    probs = np.asarray(weights, dtype=np.float64)
    probs = probs / probs.sum()
    return rng.choice(cards, size=n_edges, p=probs)


def planted_partition_hypergraph(
    n_nodes: int,
    n_edges: int,
    n_communities: int,
    *,
    min_cardinality: int = 2,
    max_cardinality: int = 5,
    p_intra: float = 0.85,
    cardinality_weights: Optional[Sequence[float]] = None,
    seed: Optional[int] = None,
) -> tuple[Hypergraph, np.ndarray]:
    """Hypergraph with planted communities.

    Nodes are split into ``n_communities`` blocks; each hyperedge draws all
    its nodes from one community with probability ``p_intra``, otherwise
    uniformly from all nodes. Returns ``(hypergraph, labels)`` where
    ``labels`` is the ground-truth community of each node.
    """
    if n_communities < 1 or n_nodes < n_communities:
        raise ValueError("need at least one node per community")
    if min_cardinality < 1 or max_cardinality < min_cardinality:
        raise ValueError("invalid cardinality range")
    rng = np.random.default_rng(seed)
    labels = np.sort(rng.integers(0, n_communities, size=n_nodes))
    members = [np.flatnonzero(labels == c) for c in range(n_communities)]
    # Guarantee non-empty communities.
    for c, m in enumerate(members):
        if m.size == 0:
            victim = int(rng.integers(0, n_nodes))
            labels[victim] = c
            members = [np.flatnonzero(labels == k) for k in range(n_communities)]
    cards = _sample_cardinalities(
        n_edges, min_cardinality, max_cardinality, rng, cardinality_weights
    )
    edges = []
    for card in cards:
        card = int(card)
        if rng.random() < p_intra:
            pool = members[int(rng.integers(0, n_communities))]
        else:
            pool = np.arange(n_nodes)
        k = min(card, pool.size)
        edges.append(tuple(rng.choice(pool, size=k, replace=False)))
    return Hypergraph(n_nodes, edges), labels
