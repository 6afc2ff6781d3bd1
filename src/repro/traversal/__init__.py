"""Shortest-path traversal substrate.

Everything the reverse k-ranks algorithms need from "Dijkstra's algorithm"
lives here, and every search runs over a
:class:`~repro.graph.csr.CompactGraph` compilation (entry points handed a
:class:`~repro.graph.Graph` compile it once on entry):

* :class:`~repro.traversal.int_heap.IntHeap` — a binary min-heap with
  decrease-key over dense int keys, the priority queue ``Q`` of the
  paper's pseudo-code;
* :class:`~repro.traversal.arena.ScratchArena` — epoch-stamped reusable
  scratch memory (heaps, settled sets, dense bound lists) the engines
  thread through every query instead of reallocating per query;
* :mod:`~repro.traversal.csr_sds` — the SDS-tree + refinement pipeline
  (driven by :mod:`repro.core.framework`);
* :mod:`~repro.traversal.csr_ops` — the array Dijkstra loops;
* :mod:`~repro.traversal.dijkstra` — full and point-to-point single-source
  shortest path searches;
* :mod:`~repro.traversal.knn` — top-k nearest nodes (graph k-NN);
* :mod:`~repro.traversal.rank` — the exact ``Rank(s, t)`` definition used by
  the naive baseline and the hub index.
"""

from repro.traversal.arena import EpochStamps, ScratchArena
from repro.traversal.int_heap import IntHeap
from repro.traversal.dijkstra import (
    shortest_path_distances,
    shortest_path_tree,
    distance_between,
)
from repro.traversal.sssp import ShortestPathTree
from repro.traversal.knn import k_nearest_nodes
from repro.traversal.rank import exact_rank, rank_row, rank_matrix
from repro.traversal.csr_ops import (
    compact_distance_map,
    compact_exact_rank,
    compact_rank_stream,
    compact_shortest_path_tree,
)

__all__ = [
    "EpochStamps",
    "IntHeap",
    "ScratchArena",
    "ShortestPathTree",
    "shortest_path_distances",
    "shortest_path_tree",
    "distance_between",
    "k_nearest_nodes",
    "exact_rank",
    "rank_row",
    "rank_matrix",
    "compact_distance_map",
    "compact_exact_rank",
    "compact_rank_stream",
    "compact_shortest_path_tree",
]
