"""Array-specialised Dijkstra/SSSP/rank loops over :class:`CompactGraph`.

Every search in the package runs here (or in
:mod:`repro.traversal.csr_sds`): over the CSR buffers with integer node
indexes and flat ``list`` distance tables.  The public entry points in
:mod:`repro.traversal.dijkstra`, :mod:`repro.traversal.rank` and
:mod:`repro.traversal.knn` accept a :class:`~repro.graph.Graph` too and
compile it once on entry (:func:`~repro.graph.csr.as_compact`).

Two settle orders
-----------------
Distances are order-independent: each settled node gets the minimum over
the same candidate sums ``d(u) + w(u, v)`` of the same IEEE doubles
whichever equal-distance node settles first.  What differs is the order
*within* a tie group:

* :func:`_settle_stream` — a ``heapq`` lazy-deletion frontier that breaks
  ties by **node index**.  Ranks only count strictly-closer tie groups, so
  they do not depend on it; it decides which boundary-tie nodes a
  truncated hub exploration records.
* :func:`insertion_order_stream` — an
  :class:`~repro.traversal.int_heap.IntHeap` frontier that breaks ties by
  **first push** (a key keeps its insertion counter across decrease-key).
  The top-k and reverse top-k answers, which list a prefix of the settle
  order, are defined by this order.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, Hashable, Iterator, Optional, Tuple

from repro.errors import NodeNotFoundError
from repro.traversal.int_heap import IntHeap
from repro.traversal.sssp import ShortestPathTree

NodeId = Hashable

__all__ = [
    "compact_distance_map",
    "compact_shortest_path_tree",
    "compact_distance_between",
    "compact_rank_stream",
    "compact_exact_rank",
    "insertion_order_stream",
]

_INF = float("inf")


def _settle_stream(
    csr, source_index: int
) -> Iterator[Tuple[int, float, list]]:
    """Yield ``(index, distance, predecessors)`` in settling order.

    The predecessor list is the live internal table (index -> predecessor
    index or -1); callers that need it must copy or consume it before
    resuming iteration.

    Delta-overlays: when ``csr`` carries a mutation side-table
    (:class:`~repro.graph.overlay.OverlayGraph`, ``overlay_out`` not
    ``None``), one ``dict.get`` per settled node selects the overlay row
    (a complete replacement) or the frozen base slice.  Overlay rows are
    full rows extracted in source order, so distances, settle order and
    tie groups are bit-identical to a from-scratch recompile's.
    """
    offsets, base_endpoints, base_weights = csr.out_csr()
    rows = csr.overlay_out
    row_get = rows.get if rows is not None else None
    num_nodes = csr.num_nodes
    distances = [_INF] * num_nodes
    predecessors = [-1] * num_nodes
    settled = bytearray(num_nodes)
    frontier = [(0.0, source_index)]
    distances[source_index] = 0.0

    while frontier:
        distance, node = heappop(frontier)
        if settled[node]:
            continue
        settled[node] = 1
        yield node, distance, predecessors
        row = row_get(node) if row_get is not None else None
        if row is None:
            endpoints, weights = base_endpoints, base_weights
            start, stop = offsets[node], offsets[node + 1]
        else:
            endpoints, weights = row
            start, stop = 0, len(endpoints)
        for position in range(start, stop):
            neighbor = endpoints[position]
            if settled[neighbor]:
                continue
            candidate = distance + weights[position]
            if candidate < distances[neighbor]:
                distances[neighbor] = candidate
                predecessors[neighbor] = node
                heappush(frontier, (candidate, neighbor))


def insertion_order_stream(csr, source_index: int) -> Iterator[Tuple[int, float]]:
    """Yield ``(index, distance)`` in settling order, ties by first push.

    Overlay rows are full rows in source order, so an overlay settles in
    exactly the order a recompile of the mutated graph would.
    """
    offsets, base_endpoints, base_weights = csr.out_csr()
    rows = csr.overlay_out
    settled = bytearray(csr.num_nodes)
    heap = IntHeap(csr.num_nodes)
    heap.push(source_index, 0.0)
    while heap:
        node, distance = heap.pop()
        settled[node] = 1
        yield node, distance
        row = rows.get(node) if rows is not None else None
        if row is None:
            endpoints, weights = base_endpoints, base_weights
            start, stop = offsets[node], offsets[node + 1]
        else:
            endpoints, weights = row
            start, stop = 0, len(endpoints)
        for position in range(start, stop):
            neighbor = endpoints[position]
            if not settled[neighbor]:
                heap.push_or_decrease(neighbor, distance + weights[position])


def compact_distance_map(csr, source: NodeId) -> Dict[NodeId, float]:
    """Exact distances from ``source`` to every reachable node."""
    source_index = csr.index_of(source)
    node_at = csr.node_at
    return {
        node_at(index): distance
        for index, distance, _ in _settle_stream(csr, source_index)
    }


def compact_shortest_path_tree(csr, source: NodeId) -> ShortestPathTree:
    """Full single-source shortest-path tree from ``source``."""
    source_index = csr.index_of(source)
    node_at = csr.node_at
    distances: Dict[NodeId, float] = {}
    settled_order = []
    settled_indexes = []
    final_predecessors = None
    for index, distance, predecessors in _settle_stream(csr, source_index):
        node = node_at(index)
        distances[node] = distance
        settled_order.append(node)
        settled_indexes.append(index)
        final_predecessors = predecessors
    tree_predecessors: Dict[NodeId, Optional[NodeId]] = {}
    for node, index in zip(settled_order, settled_indexes):
        predecessor_index = final_predecessors[index]
        tree_predecessors[node] = (
            None if predecessor_index < 0 else node_at(predecessor_index)
        )
    return ShortestPathTree(
        source=source,
        distances=distances,
        predecessors=tree_predecessors,
        settled_order=settled_order,
        complete=True,
    )


def compact_distance_between(csr, source: NodeId, target: NodeId) -> float:
    """Point-to-point shortest distance (``inf`` when unreachable)."""
    source_index = csr.index_of(source)
    target_index = csr.index_of(target)
    for index, distance, _ in _settle_stream(csr, source_index):
        if index == target_index:
            return distance
    return _INF


def compact_rank_stream(
    csr,
    source: NodeId,
    counted: Optional[Callable[[NodeId], bool]] = None,
) -> Iterator[Tuple[NodeId, float, float]]:
    """Yield ``(node, distance, Rank(source, node))`` in settling order.

    Nodes settled at the same distance form a tie group and share the same
    "number of strictly closer counted nodes"; ties settle by node index.
    """
    if not csr.has_node(source):
        raise NodeNotFoundError(source)
    return _compact_rank_stream(csr, source, counted)


def _compact_rank_stream(
    csr,
    source: NodeId,
    counted: Optional[Callable[[NodeId], bool]],
) -> Iterator[Tuple[NodeId, float, float]]:
    source_index = csr.index_of(source)
    node_at = csr.node_at
    closer_counted = 0
    tie_counted = 0
    previous_distance: Optional[float] = None
    for index, distance, _ in _settle_stream(csr, source_index):
        if index == source_index:
            continue
        if previous_distance is None or distance > previous_distance:
            closer_counted += tie_counted
            tie_counted = 0
            previous_distance = distance
        node = node_at(index)
        yield node, distance, closer_counted + 1
        if counted is None or counted(node):
            tie_counted += 1


def compact_exact_rank(
    csr,
    source: NodeId,
    target: NodeId,
    counted: Optional[Callable[[NodeId], bool]] = None,
) -> float:
    """Exact ``Rank(source, target)``, terminating when ``target`` settles."""
    if not csr.has_node(source):
        raise NodeNotFoundError(source)
    if not csr.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        # Matches the full-distance definition: nothing is strictly closer
        # to the source than the source itself.
        return 1
    for node, _, rank in _compact_rank_stream(csr, source, counted):
        if node == target:
            return rank
    return _INF
