"""The static SDS-tree algorithm (paper Section 3).

The static variant builds the SDS-tree (a Dijkstra tree towards ``q``) and
refines the rank of every settled candidate; the only pruning is Theorem 1:
once a refined rank exceeds the current ``kRank`` the node's whole subtree is
skipped.  None of the Theorem-2 dynamic lower bounds are active, which is
expressed as :meth:`~repro.core.config.BoundSet.none`.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from repro.core.config import BoundSet
from repro.core.framework import SDSTreeSearch
from repro.core.types import QueryResult

NodeId = Hashable
Predicate = Callable[[NodeId], bool]

__all__ = ["static_reverse_k_ranks"]


def static_reverse_k_ranks(
    graph,
    query: NodeId,
    k: int,
    candidate: Optional[Predicate] = None,
    counted: Optional[Predicate] = None,
    backend=None,
    arena=None,
) -> QueryResult:
    """Answer a reverse k-ranks query with the static SDS-tree.

    Parameters mirror :func:`~repro.core.naive.naive_reverse_k_ranks`; the
    ``candidate`` / ``counted`` predicates support the bichromatic variant.
    ``backend`` optionally supplies a fresh
    :class:`~repro.graph.csr.CompactGraph` compilation of ``graph`` to
    traverse (without one a :class:`~repro.graph.Graph` is compiled on
    entry); ``arena`` an optional reusable
    :class:`~repro.traversal.arena.ScratchArena`.
    """
    search = SDSTreeSearch(
        graph,
        query,
        k,
        bounds=BoundSet.none(),
        candidate=candidate,
        counted=counted,
        backend=backend,
        arena=arena,
    )
    return search.run()
