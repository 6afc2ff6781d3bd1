"""The shared filter-and-refine SDS-tree traversal.

All three of the paper's algorithms — the static SDS-tree (Section 3), the
Dynamic Bounded SDS-tree (Section 4) and the indexed variant (Section 5) —
share the same skeleton:

1. run a Dijkstra search *towards* the query node ``q`` (i.e. on the
   transpose graph), settling candidate nodes in increasing order of their
   distance ``d(p, q)``;
2. for each settled node decide, using ever-tighter information, whether its
   rank must be refined;
3. refine with the bounded ``GetRank`` search, bounded by the current
   ``kRank``;
4. expand a node's tree children only when the node can still be (or is) a
   result — Theorem 1 guarantees that the children of a non-result cannot be
   results either.

:class:`SDSTreeSearch` is that skeleton's front door, parameterised by a
:class:`~repro.core.config.BoundSet` (none = static, any = dynamic), an
optional :class:`~repro.core.hub_index.HubIndex`, and optional bichromatic
predicates.  It validates the query, resolves the
:class:`~repro.graph.csr.CompactGraph` compilation to traverse (the graph
itself when compact, a supplied ``backend``, or one compiled on entry),
seeds the result set from the index and hands the traversal to
:class:`~repro.traversal.csr_sds.CompactSDSTreeSearch`, which holds the
loops and their correctness argument.  The public algorithm modules are
thin wrappers that pick the right configuration.
"""

from __future__ import annotations

import time
from typing import Callable, Hashable, Optional

from repro.core.config import BoundSet
from repro.core.resultset import TopKRankCollector
from repro.core.types import QueryResult, QueryStats
from repro.errors import InvalidQueryNodeError, check_positive_k
from repro.graph.csr import as_compact
from repro.traversal.csr_sds import CompactSDSTreeSearch

NodeId = Hashable
Predicate = Callable[[NodeId], bool]

__all__ = ["SDSTreeSearch"]


class SDSTreeSearch:
    """One reverse k-ranks query evaluated with the filter-and-refine framework.

    Parameters
    ----------
    graph:
        The graph to query: a :class:`~repro.graph.Graph` (the source of
        truth the index is keyed by) or a compilation of one.
    query:
        The query node ``q``.
    k:
        Requested result size.
    bounds:
        Active lower-bound components.  :meth:`BoundSet.none` reproduces the
        static SDS-tree, any other value the Dynamic Bounded SDS-tree.
    index:
        Optional :class:`~repro.core.hub_index.HubIndex`.  When provided, the
        result set is seeded from the Reverse Rank Dictionary, candidates can
        be answered or pruned from the index, and the index is updated with
        everything the refinements discover.
    candidate:
        Predicate selecting which nodes may appear in the result
        (bichromatic queries restrict this to community nodes).  ``None``
        means every node other than ``q`` is a candidate.
    counted:
        Predicate selecting which nodes contribute to rank values
        (bichromatic queries restrict this to facility nodes).  ``None``
        means every node counts.
    algorithm_label:
        Name recorded in the produced :class:`~repro.core.types.QueryResult`.
    backend:
        Optional :class:`~repro.graph.csr.CompactGraph` compilation of
        ``graph`` to traverse.  It must be fresh — a version mismatch with
        ``graph`` is rejected.  Without one, a :class:`~repro.graph.Graph`
        is compiled on entry; engines pass their cached compilation.
    masks:
        Optional pre-built ``(candidate_mask, counted_mask)`` bytearrays
        over the compilation's node order (either element may be
        ``None``).  Engines answering many queries against one compilation
        cache these per graph version so the traversal does not
        re-evaluate the predicates over every node on every query; the
        masks must encode exactly the ``candidate`` / ``counted``
        predicates.
    arena:
        Optional :class:`~repro.traversal.arena.ScratchArena` supplying
        reusable, epoch-stamped scratch memory (frontier heaps, settled
        sets, the dense bound lists).  Engines own one and thread it
        through every query; results and
        :class:`~repro.core.types.QueryStats` are identical with or
        without it.
    """

    def __init__(
        self,
        graph,
        query: NodeId,
        k: int,
        bounds: Optional[BoundSet] = None,
        index=None,
        candidate: Optional[Predicate] = None,
        counted: Optional[Predicate] = None,
        algorithm_label: str = "",
        backend=None,
        masks=None,
        arena=None,
    ) -> None:
        check_positive_k(k)
        if not graph.has_node(query):
            raise InvalidQueryNodeError(query)

        self._csr = as_compact(graph, backend)
        self._query = query
        self._bounds = bounds if bounds is not None else BoundSet.all()
        self._index = index
        self._candidate = candidate
        self._counted = counted
        self._masks = masks if masks is not None else (None, None)
        self._arena = arena
        self._label = algorithm_label or self._bounds.label()

        # The count bound is only valid on undirected graphs (paper, footnote
        # to Lemma 3) and only in the monochromatic setting (Lemma 4 relies on
        # the visiting nodes themselves being counted).
        self._count_bound_active = (
            self._bounds.use_count and not graph.directed and counted is None
        )
        # The height bound generalises to "counted nodes on the tree path
        # strictly farther from q than q itself"; in the monochromatic case
        # with positive weights this is exactly the tree depth (Lemma 2).
        self._height_bound_active = self._bounds.use_height

        if index is not None:
            index.ensure_compatible(graph, k)

        self.stats = QueryStats()
        self._collector = TopKRankCollector(k)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> QueryResult:
        """Evaluate the query and return the result."""
        started = time.perf_counter()
        self._seed_from_index()
        CompactSDSTreeSearch(
            self._csr,
            self._query,
            collector=self._collector,
            stats=self.stats,
            index=self._index,
            use_parent=self._bounds.use_parent,
            height_active=self._height_bound_active,
            count_active=self._count_bound_active,
            candidate=self._candidate,
            counted=self._counted,
            candidate_mask=self._masks[0],
            counted_mask=self._masks[1],
            arena=self._arena,
        ).traverse()
        self.stats.elapsed_seconds = time.perf_counter() - started
        return self._collector.as_result(
            self._query, stats=self.stats, algorithm=self._label
        )

    # ------------------------------------------------------------------
    # Seeding from the hub index
    # ------------------------------------------------------------------
    def _seed_from_index(self) -> None:
        if self._index is None:
            return
        candidate = self._candidate
        for node, rank in self._index.known_reverse_ranks(self._query):
            if node != self._query and (candidate is None or candidate(node)):
                self._collector.offer(node, rank)
