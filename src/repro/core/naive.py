"""Brute-force reverse k-ranks baseline (paper Section 2, "Naive").

The naive algorithm evaluates ``Rank(p, q)`` for every candidate node ``p``
with one full single-source shortest-path search per candidate and keeps the
``k`` smallest ranks.  It performs no pruning whatsoever, which makes it the
ground truth every optimised algorithm is cross-validated against.  A
:class:`~repro.graph.Graph` is compiled once per call and every candidate's
search runs over that one compilation.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Hashable, Optional

from repro.core.resultset import TopKRankCollector
from repro.core.types import QueryResult, QueryStats
from repro.errors import InvalidQueryNodeError, check_positive_k
from repro.graph.csr import as_compact
from repro.traversal.csr_ops import compact_exact_rank

NodeId = Hashable
Predicate = Callable[[NodeId], bool]

__all__ = ["naive_reverse_k_ranks"]


def naive_reverse_k_ranks(
    graph,
    query: NodeId,
    k: int,
    candidate: Optional[Predicate] = None,
    counted: Optional[Predicate] = None,
    algorithm_label: str = "Naive",
) -> QueryResult:
    """Answer a reverse k-ranks query by exhaustive rank computation.

    Parameters
    ----------
    graph:
        The graph to query, or a compilation of it.
    query:
        The query node ``q``.
    k:
        Requested result size.
    candidate:
        Optional predicate restricting which nodes may appear in the result
        (bichromatic queries pass "is a community node").  ``None`` means
        every node other than ``q`` is a candidate.
    counted:
        Optional predicate restricting which nodes contribute to rank values
        (bichromatic queries pass "is a facility node").
    algorithm_label:
        Name recorded in the produced :class:`~repro.core.types.QueryResult`.

    Returns
    -------
    QueryResult
        The ``k`` candidates with the smallest ``Rank(p, q)``, sorted by
        increasing rank.  Candidates that cannot reach ``q`` (infinite rank)
        are never part of the result, matching the traversal-based
        algorithms, which only ever meet nodes that can reach ``q``.
    """
    check_positive_k(k)
    if not graph.has_node(query):
        raise InvalidQueryNodeError(query)

    csr = as_compact(graph)
    stats = QueryStats()
    collector = TopKRankCollector(k)
    started = time.perf_counter()

    for node in csr.nodes():
        if node == query:
            continue
        if candidate is not None and not candidate(node):
            continue
        stats.rank_refinements += 1
        rank = compact_exact_rank(csr, node, query, counted=counted)
        if math.isinf(rank):
            continue
        collector.offer(node, rank)

    stats.elapsed_seconds = time.perf_counter() - started
    return collector.as_result(query, stats=stats, algorithm=algorithm_label)
