"""Dijkstra's algorithm: the full single-source search.

:func:`shortest_path_distances` is the classic full single-source search
(used by exact closeness centrality and the tests).  It accepts a
:class:`~repro.graph.Graph` or a compilation of one
(:class:`~repro.graph.csr.CompactGraph` or an overlay): a graph is compiled
once on entry and the search runs over the CSR buffers
(:mod:`repro.traversal.csr_ops`).  Ties settle by node index.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.graph.csr import as_compact
from repro.traversal.csr_ops import compact_distance_map

NodeId = Hashable

__all__ = ["shortest_path_distances"]


def shortest_path_distances(graph, source: NodeId) -> Dict[NodeId, float]:
    """Exact distances from ``source`` to every reachable node."""
    return compact_distance_map(as_compact(graph), source)
