"""The Dynamic Bounded SDS-tree algorithm (paper Section 4).

Identical traversal skeleton to the static SDS-tree, but each settled
candidate is first tested against the Theorem-2 lower bound (parent rank,
tree-height and visit-count components); candidates whose bound already
reaches ``kRank`` skip rank refinement entirely.  The active components are
selectable via :class:`~repro.core.config.BoundSet`, which is how the paper's
``Dynamic-Parent`` / ``Dynamic-Count`` / ``Dynamic-Height`` / ``Dynamic-Three``
ablations (Section 6.3.2) are expressed.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from repro.core.config import BoundSet
from repro.core.framework import SDSTreeSearch
from repro.core.types import QueryResult

NodeId = Hashable
Predicate = Callable[[NodeId], bool]

__all__ = ["dynamic_reverse_k_ranks"]


def dynamic_reverse_k_ranks(
    graph,
    query: NodeId,
    k: int,
    bounds: Optional[BoundSet] = None,
    candidate: Optional[Predicate] = None,
    counted: Optional[Predicate] = None,
    backend=None,
    arena=None,
) -> QueryResult:
    """Answer a reverse k-ranks query with the Dynamic Bounded SDS-tree.

    Parameters
    ----------
    bounds:
        Active lower-bound components; defaults to
        :meth:`BoundSet.all` (``Dynamic-Three``).  The count component is
        automatically ignored by the framework on directed graphs and in
        bichromatic mode, where Lemmas 3/4 do not apply.
    backend:
        Optional fresh :class:`~repro.graph.csr.CompactGraph` compilation
        of ``graph`` to traverse; without one a
        :class:`~repro.graph.Graph` is compiled on entry.
    arena:
        Optional reusable :class:`~repro.traversal.arena.ScratchArena`
        (results and stats are identical with or without it).
    """
    active = BoundSet.all() if bounds is None else bounds
    search = SDSTreeSearch(
        graph,
        query,
        k,
        bounds=active,
        candidate=candidate,
        counted=counted,
        backend=backend,
        arena=arena,
    )
    return search.run()
