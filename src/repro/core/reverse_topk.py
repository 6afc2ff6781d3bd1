"""Reverse top-k queries (paper Section 6.2, Table 3).

The reverse top-k of ``q`` is the set of nodes ``p`` whose top-k proximity
set contains ``q``: ``{p : q ∈ topk(p)}``.  It is the main competitor query
in the paper's effectiveness study — unlike reverse k-ranks its result size
is uncontrollable (often empty for peripheral query nodes), which is exactly
the deficiency the paper demonstrates.

Membership follows the truncation semantics of
:func:`~repro.traversal.knn.k_nearest_nodes` (equal-distance nodes keep the
order the search first reached them), so ``reverse_top_k`` agrees with
checking ``q in top_k_nodes(p)``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional

from repro.errors import InvalidKError, NodeNotFoundError
from repro.graph.csr import as_compact
from repro.traversal.knn import k_nearest_nodes

NodeId = Hashable

__all__ = ["reverse_top_k", "reverse_top_k_all_sizes"]


def _query_position(csr, source: NodeId, query: NodeId, max_k: int) -> Optional[int]:
    """1-based position of ``query`` among the ``max_k`` nearest of ``source``.

    ``None`` when ``query`` is not among them (or unreachable).
    """
    nearest = k_nearest_nodes(csr, source, max_k)
    for position, (node, _) in enumerate(nearest, start=1):
        if node == query:
            return position
    return None


def reverse_top_k_all_sizes(
    graph, query: NodeId, ks: Iterable[int]
) -> Dict[int, List[NodeId]]:
    """Reverse top-k results of ``query`` for several ``k`` values at once.

    One truncated Dijkstra per node, over one compilation of ``graph``, is
    shared across all requested sizes (the batch the paper's Table 3
    sweeps over).  Results are sorted by ``repr`` for determinism.
    """
    sizes = sorted(set(ks))
    if not sizes:
        return {}
    for k in sizes:
        if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
            raise InvalidKError(k)
    if not graph.has_node(query):
        raise NodeNotFoundError(query)

    max_k = sizes[-1]
    csr = as_compact(graph)
    results: Dict[int, List[NodeId]] = {k: [] for k in sizes}
    for node in sorted(csr.nodes(), key=repr):
        if node == query:
            continue
        position = _query_position(csr, node, query, max_k)
        if position is None:
            continue
        for k in sizes:
            if position <= k:
                results[k].append(node)
    return results


def reverse_top_k(graph, query: NodeId, k: int) -> List[NodeId]:
    """All nodes whose top-k proximity set contains ``query``."""
    return reverse_top_k_all_sizes(graph, query, [k])[k]
