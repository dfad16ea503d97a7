"""Hyperedge-list text I/O.

The standard interchange format of the hypergraph datasets the paper uses
([33]): one hyperedge per line as whitespace-separated 1-based node ids,
optionally followed by ``# weight`` — plus a header comment with the node
count so isolated trailing nodes survive round trips.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TextIO, Union

from .hypergraph import Hypergraph

__all__ = ["write_hyperedges", "read_hyperedges"]

PathLike = Union[str, Path, TextIO]


def _open(target: PathLike, mode: str):
    if isinstance(target, (str, Path)):
        return open(target, mode, encoding="utf-8"), True
    return target, False


def write_hyperedges(hypergraph: Hypergraph, target: PathLike) -> None:
    """Write 1-based hyperedge lines; non-unit weights appended as ``# w``."""
    handle, owned = _open(target, "w")
    try:
        handle.write(f"# nodes: {hypergraph.n_nodes}\n")
        for edge, weight in zip(hypergraph.edges, hypergraph.weights):
            line = " ".join(str(v + 1) for v in edge)
            if weight != 1.0:
                line += f" # {float(weight)!r}"
            handle.write(line + "\n")
    finally:
        if owned:
            handle.close()


def read_hyperedges(source: PathLike, n_nodes: int | None = None) -> Hypergraph:
    """Read a hyperedge list written by :func:`write_hyperedges`.

    ``n_nodes`` overrides the header (or infers ``max id + 1`` when both
    are absent). A malformed line, or a node id outside that range,
    raises ``ValueError`` naming it.
    """
    handle, owned = _open(source, "r")
    try:
        edges = []
        weights = []
        linenos = []
        header_nodes = None
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                body = text[1:].strip()
                if body.startswith("nodes:"):
                    try:
                        header_nodes = int(body.split(":", 1)[1])
                    except ValueError as exc:
                        raise ValueError(f"line {lineno}: bad node count") from exc
                continue
            ids_part, _, weight_part = text.partition("#")
            try:
                ids = [int(tok) - 1 for tok in ids_part.split()]
                weight = float(weight_part) if "#" in text else 1.0
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad node id or weight") from exc
            if not math.isfinite(weight):
                raise ValueError(f"line {lineno}: weight {weight} is not finite")
            if not ids:
                raise ValueError(f"line {lineno}: empty hyperedge")
            edges.append(tuple(ids))
            weights.append(weight)
            linenos.append(lineno)
        total = n_nodes if n_nodes is not None else header_nodes
        if total is None:
            total = 1 + max((max(e) for e in edges), default=-1)
        for edge, lineno in zip(edges, linenos):
            if not all(0 <= v < total for v in edge):
                raise ValueError(
                    f"line {lineno}: node id out of range [1, {total}]"
                )
        return Hypergraph(total, edges, weights)
    finally:
        if owned:
            handle.close()
