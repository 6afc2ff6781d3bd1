"""Unit tests for the GetRank refinement (pruning, hooks, tie handling).

The refinement is :meth:`CompactSDSTreeSearch._refine`, run on its own over
a compilation with the query node as the target; ranks are checked against
the textbook oracle (``rank_oracle``).  Its hooks are what the traversal
feeds on: ``lcount`` visits (Lemma 3) and hub-index rank records
(Algorithm 4).
"""

from __future__ import annotations

import math

import rank_oracle
from repro.core.resultset import TopKRankCollector
from repro.core.types import QueryStats
from repro.graph import CompactGraph, Graph
from repro.traversal.csr_sds import CompactSDSTreeSearch


class RecordingIndex:
    """Stands in for a hub index: the refinement only writes to it."""

    def __init__(self):
        self.ranks = {}
        self.explored = {}

    def record_rank(self, source, target, rank):
        self.ranks[target] = rank

    def record_exploration(self, source, settled):
        self.explored[source] = settled


def refine(graph, source, target, radius, k_rank=math.inf, counted=None,
           index=None, count_active=False):
    """``(rank or None when pruned, stats, search)`` of one refinement."""
    csr = CompactGraph.from_graph(graph)
    stats = QueryStats()
    search = CompactSDSTreeSearch(
        csr, target, collector=TopKRankCollector(1), stats=stats,
        index=index, count_active=count_active, counted=counted,
    )
    rank = search._refine(csr.index_of(source), radius, k_rank)
    return rank, stats, search


def test_refine_rank_matches_exact_rank(weighted_grid):
    distances = rank_oracle.distances(weighted_grid, 0)
    for target in (5, 10, 15):
        rank, stats, _ = refine(weighted_grid, 0, target, radius=distances[target])
        assert stats.refinements_pruned == 0
        assert rank == rank_oracle.rank(weighted_grid, 0, target)


def test_refine_rank_exact_even_with_inflated_radius(weighted_grid):
    # Theorem-1 pruning can hand the refinement an over-estimated radius;
    # settling the target must still produce the true rank.
    distances = rank_oracle.distances(weighted_grid, 0)
    rank, _, _ = refine(weighted_grid, 0, 15, radius=distances[15] * 2.5)
    assert rank == rank_oracle.rank(weighted_grid, 0, 15)


def test_refine_rank_prunes_when_k_rank_exceeded(path_graph):
    # Rank(9, 0) on the path is 9; a bound of 3 must abort early.
    rank, stats, _ = refine(path_graph, 9, 0, radius=9.0, k_rank=3)
    assert rank is None
    assert stats.refinements_pruned == 1
    # The abort must have saved work compared to the full refinement.
    _, full, _ = refine(path_graph, 9, 0, radius=9.0)
    assert stats.refinement_nodes_settled < full.refinement_nodes_settled


def test_refine_rank_boundary_rank_not_pruned(path_graph):
    # A rank exactly equal to k_rank must complete (ties at kRank are
    # legitimate results; only strictly worse ranks may abort).
    true_rank = rank_oracle.rank(path_graph, 5, 0)
    rank, stats, _ = refine(path_graph, 5, 0, radius=5.0, k_rank=true_rank)
    assert stats.refinements_pruned == 0
    assert rank == true_rank


def test_refine_rank_counted_predicate(path_graph):
    def even(node):
        return node % 2 == 0

    rank, _, _ = refine(path_graph, 3, 0, radius=3.0, counted=even)
    assert rank == rank_oracle.rank(path_graph, 3, 0, counted=even)


def test_refine_rank_on_settle_reports_exact_ranks(weighted_grid):
    index = RecordingIndex()
    refine(
        weighted_grid, 0, 15,
        radius=rank_oracle.distances(weighted_grid, 0)[15], index=index,
    )
    assert index.ranks, "no rank was recorded"
    for node, rank in index.ranks.items():
        assert rank == rank_oracle.rank(weighted_grid, 0, node)
    # The target itself is reported too (feeds the Reverse Rank Dictionary).
    assert 15 in index.ranks
    assert index.explored == {0: len(index.ranks)}


def test_refine_rank_on_push_fires_strictly_inside_radius(path_graph):
    _, _, search = refine(path_graph, 4, 0, radius=4.0, count_active=True)
    csr = search._csr
    visited = {
        csr.node_at(index)
        for index in range(csr.num_nodes)
        if search._lcount_stamps[index] == search._lcount_epoch
    }
    # Strictly inside radius 4 from node 4: distances 1,2,3 on both sides.
    assert visited == {1, 2, 3, 5, 6, 7}
    assert all(search._lcount[csr.index_of(node)] == 1 for node in visited)


def test_refine_rank_tie_groups():
    star = Graph()
    for leaf in ("x", "y", "z", "q"):
        star.add_edge("hub", leaf, 1.0)
    # From x: hub at 1; y, z, q tie at 2. Nothing is strictly closer to x
    # than q except the hub.
    rank, _, _ = refine(star, "x", "q", radius=2.0)
    assert rank == 2


def test_refine_rank_unreachable_target_degenerates_to_pruned():
    graph = Graph()
    graph.add_edge("a", "b", 1.0)
    graph.add_node("island")
    rank, stats, _ = refine(graph, "a", "island", radius=5.0)
    assert rank is None
    assert stats.refinements_pruned == 1
