"""Bichromatic reverse k-ranks queries (paper Section 6.3.4, Definitions 3-4).

In the bichromatic setting the node set is split into facilities (``V2``,
where queries originate) and communities (``V1``, the only admissible
results), and rank values count facility nodes only.  Both the brute-force
baseline and the SDS-tree framework support this through their
``candidate`` / ``counted`` predicates; these wrappers wire a
:class:`~repro.graph.partition.BichromaticPartition` into them and validate
the query node's class.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.config import BoundSet
from repro.core.framework import SDSTreeSearch
from repro.core.naive import naive_reverse_k_ranks
from repro.graph.csr import as_compact
from repro.core.types import QueryResult
from repro.graph.partition import BichromaticPartition

NodeId = Hashable

__all__ = ["bichromatic_naive_reverse_k_ranks", "bichromatic_reverse_k_ranks"]


def bichromatic_naive_reverse_k_ranks(
    partition: BichromaticPartition, query: NodeId, k: int, backend=None
) -> QueryResult:
    """Brute-force bichromatic baseline (Definition 4 evaluated exhaustively).

    ``backend`` optionally supplies a fresh
    :class:`~repro.graph.csr.CompactGraph` compilation of the partition's
    graph for the exhaustive rank computations to run on (the partition
    predicates work on node identifiers, which a compilation yields too);
    without one the graph is compiled on entry.
    """
    partition.validate_query_node(query)
    return naive_reverse_k_ranks(
        # Same freshness bar as the SDS entry points: a stale compilation
        # must never silently supply the ground-truth baseline.
        as_compact(partition.graph, backend),
        query,
        k,
        candidate=partition.is_candidate,
        counted=partition.is_counted,
        algorithm_label="Bichromatic-Naive",
    )


def bichromatic_reverse_k_ranks(
    partition: BichromaticPartition,
    query: NodeId,
    k: int,
    bounds: Optional[BoundSet] = None,
    backend=None,
    masks=None,
    arena=None,
) -> QueryResult:
    """Bichromatic reverse k-ranks with the SDS-tree framework.

    Parameters
    ----------
    bounds:
        Theorem-2 bound components; defaults to :meth:`BoundSet.all`
        (the framework drops the count component itself, since Lemma 4 does
        not hold bichromatically).  Pass :meth:`BoundSet.none` for the
        static variant.
    backend:
        Optional fresh :class:`~repro.graph.csr.CompactGraph` compilation of
        the partition's graph; without one it is compiled on entry.
    masks:
        Optional pre-built ``(candidate_mask, counted_mask)`` bytearrays
        over the compilation's node order — the engine's per-version
        cache of the partition predicates (see
        :class:`~repro.core.framework.SDSTreeSearch`).  They must encode
        this partition's :meth:`~BichromaticPartition.is_candidate` /
        :meth:`~BichromaticPartition.is_counted` answers.
    arena:
        Optional reusable :class:`~repro.traversal.arena.ScratchArena`
        (results and stats are identical with or without it).
    """
    partition.validate_query_node(query)
    active = BoundSet.all() if bounds is None else bounds
    search = SDSTreeSearch(
        partition.graph,
        query,
        k,
        bounds=active,
        candidate=partition.is_candidate,
        counted=partition.is_counted,
        algorithm_label=f"Bichromatic-{active.label()}",
        backend=backend,
        masks=masks,
        arena=arena,
    )
    return search.run()
