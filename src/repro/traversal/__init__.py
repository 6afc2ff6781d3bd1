"""Shortest-path traversal substrate.

Everything the reverse k-ranks algorithms need from "Dijkstra's algorithm"
lives here, and every search runs over a
:class:`~repro.graph.csr.CompactGraph` compilation (entry points handed a
:class:`~repro.graph.Graph` compile it once on entry).  The priority queue
``Q`` of the paper's pseudo-code is a stdlib ``heapq`` list with lazy
deletion in every loop:

* :class:`~repro.traversal.arena.ScratchArena` — epoch-stamped reusable
  scratch memory (settled sets, frontier tables, dense bound lists) the
  engines thread through every query instead of reallocating per query;
* :mod:`~repro.traversal.csr_sds` — the SDS-tree + refinement pipeline
  (driven by :mod:`repro.core.framework`);
* :mod:`~repro.traversal.csr_ops` — the array Dijkstra loops;
* :mod:`~repro.traversal.dijkstra` — the full single-source shortest path
  search;
* :mod:`~repro.traversal.knn` — top-k nearest nodes (graph k-NN);
* :mod:`~repro.traversal.rank` — the exact ``Rank(s, t)`` definition used by
  the naive baseline and the hub index.
"""

from repro.traversal.arena import EpochStamps, ScratchArena
from repro.traversal.dijkstra import shortest_path_distances
from repro.traversal.knn import k_nearest_nodes
from repro.traversal.rank import exact_rank, rank_row
from repro.traversal.csr_ops import (
    compact_distance_map,
    compact_exact_rank,
    compact_rank_stream,
)

__all__ = [
    "EpochStamps",
    "ScratchArena",
    "shortest_path_distances",
    "k_nearest_nodes",
    "exact_rank",
    "rank_row",
    "compact_distance_map",
    "compact_exact_rank",
    "compact_rank_stream",
]
