"""Graph k-nearest-neighbour queries (top-k proximity sets).

``topk[p]`` — the set of the ``k`` nodes closest to ``p`` by shortest-path
distance — is the building block of both the top-k query analysis (Table 4,
agreement rate) and the reverse top-k query (Table 3).  The paper evaluates
these with a single-source shortest-path search truncated after ``k``
settled nodes, which is exactly what :func:`k_nearest_nodes` does.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

from repro.errors import InvalidKError
from repro.graph.csr import as_compact
from repro.traversal.csr_ops import insertion_order_stream

NodeId = Hashable

__all__ = ["k_nearest_nodes"]


def k_nearest_nodes(graph, source: NodeId, k: int) -> List[Tuple[NodeId, float]]:
    """The ``k`` nodes nearest to ``source`` (excluding the source itself).

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.Graph` or a compilation of one.
    source:
        Query node.
    k:
        Number of neighbours to return.  Fewer are returned when fewer than
        ``k`` nodes are reachable.

    Returns
    -------
    list of (node, distance)
        Sorted by increasing distance; nodes at equal distance keep the
        order the search first reached them
        (:func:`~repro.traversal.csr_ops.insertion_order_stream`).
    """
    if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
        raise InvalidKError(k)

    csr = as_compact(graph)
    source_index = csr.index_of(source)
    node_at = csr.node_at
    result: List[Tuple[NodeId, float]] = []
    for index, distance in insertion_order_stream(csr, source_index):
        if index == source_index:
            continue
        result.append((node_at(index), distance))
        if len(result) >= k:
            break
    return result
