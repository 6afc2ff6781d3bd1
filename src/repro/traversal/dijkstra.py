"""Dijkstra's algorithm: full single-source and point-to-point searches.

* :func:`shortest_path_tree` / :func:`shortest_path_distances` — the classic
  full single-source search (used by exact closeness centrality and the
  tests);
* :func:`distance_between` — an early-terminating point-to-point distance.

Each accepts a :class:`~repro.graph.Graph` or a compilation of one
(:class:`~repro.graph.csr.CompactGraph` or an overlay): a graph is compiled
once on entry and the search runs over the CSR buffers
(:mod:`repro.traversal.csr_ops`).  Ties settle by node index.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.graph.csr import as_compact
from repro.traversal.csr_ops import (
    compact_distance_between,
    compact_distance_map,
    compact_shortest_path_tree,
)
from repro.traversal.sssp import ShortestPathTree

NodeId = Hashable

__all__ = [
    "shortest_path_tree",
    "shortest_path_distances",
    "distance_between",
]


def shortest_path_tree(graph, source: NodeId) -> ShortestPathTree:
    """Full single-source shortest-path tree from ``source``."""
    return compact_shortest_path_tree(as_compact(graph), source)


def shortest_path_distances(graph, source: NodeId) -> Dict[NodeId, float]:
    """Exact distances from ``source`` to every reachable node."""
    return compact_distance_map(as_compact(graph), source)


def distance_between(graph, source: NodeId, target: NodeId) -> float:
    """Point-to-point shortest distance (``inf`` when unreachable).

    The search terminates as soon as ``target`` is settled.
    """
    return compact_distance_between(as_compact(graph), source, target)
