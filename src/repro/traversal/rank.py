"""Exact ``Rank(s, t)`` computation (paper Definition 1).

``Rank(s, t)`` is one plus the number of nodes strictly closer to ``s`` than
``t`` is.  :func:`exact_rank` computes it directly from one Dijkstra run
over the graph's compilation (a :class:`~repro.graph.Graph` is compiled
once on entry), stopping when ``t`` settles.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from repro.graph.csr import as_compact
from repro.traversal.csr_ops import compact_exact_rank

NodeId = Hashable

__all__ = ["exact_rank"]


def exact_rank(
    graph,
    source: NodeId,
    target: NodeId,
    counted: Optional[Callable[[NodeId], bool]] = None,
) -> float:
    """Exact ``Rank(source, target)`` per Definition 1 (or Definition 3).

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.Graph` or a compilation of one.
    source:
        The node doing the ranking (``s``).
    target:
        The node being ranked (``t``).
    counted:
        Optional predicate restricting which nodes contribute to the rank.
        For bichromatic queries (Definition 3) this is "is a facility node";
        monochromatic queries count every node.

    Returns
    -------
    float
        ``1 + |{p != source, target : d(source, p) < d(source, target)}|``
        restricted to counted nodes, or ``math.inf`` when ``target`` is not
        reachable from ``source``.  The search stops when ``target``
        settles.
    """
    return compact_exact_rank(as_compact(graph), source, target, counted=counted)

