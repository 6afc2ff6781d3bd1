"""Unit tests for exact_rank / rank_row against hand-computed distances."""

from __future__ import annotations

import math

import pytest

from repro.errors import NodeNotFoundError
from repro.graph import Graph
from repro.traversal.rank import exact_rank

from rank_rows import rank_row


@pytest.fixture(scope="module")
def diamond() -> Graph:
    """a-b(1), a-c(2), b-d(2), c-d(1): d(a,d)=3 two ways, d ties with c."""
    graph = Graph()
    graph.add_edge("a", "b", 1.0)
    graph.add_edge("a", "c", 2.0)
    graph.add_edge("b", "d", 2.0)
    graph.add_edge("c", "d", 1.0)
    return graph


def test_exact_rank_on_path(path_graph):
    # From node 3, distances to 0..9 are 3,2,1,_,1,2,3,4,5,6.
    assert exact_rank(path_graph, 3, 4) == 1
    assert exact_rank(path_graph, 3, 2) == 1
    assert exact_rank(path_graph, 3, 5) == 3
    assert exact_rank(path_graph, 3, 0) == 5
    assert exact_rank(path_graph, 3, 9) == 9


def test_exact_rank_counts_strictly_closer_only(diamond):
    # From a: d(b)=1, d(c)=2, d(d)=3. Rank(a, c) counts only b.
    assert exact_rank(diamond, "a", "c") == 2
    assert exact_rank(diamond, "a", "b") == 1
    assert exact_rank(diamond, "a", "d") == 3


def test_exact_rank_with_ties(diamond):
    # From d: d(c)=1, d(b)=2, d(a)=3. From b: d(a)=1, d(d)=2, d(c)=3.
    # From c: d(d)=1, d(a)=2, d(b)=3.
    assert exact_rank(diamond, "d", "b") == 2
    assert exact_rank(diamond, "c", "b") == 3


def test_exact_rank_counted_predicate(path_graph):
    # Only even nodes count. From 3 to 0: strictly closer are 2,1,4,5
    # (d<3) -> counted among them: 2 and 4.
    assert exact_rank(path_graph, 3, 0, counted=lambda n: n % 2 == 0) == 3


def test_exact_rank_unreachable_is_infinite():
    graph = Graph()
    graph.add_node("isolated")
    graph.add_edge("a", "b", 1.0)
    assert math.isinf(exact_rank(graph, "isolated", "a"))


def test_exact_rank_missing_nodes_raise(path_graph):
    with pytest.raises(NodeNotFoundError):
        exact_rank(path_graph, 0, "nope")
    with pytest.raises(NodeNotFoundError):
        exact_rank(path_graph, "nope", 0)


def test_rank_row_matches_exact_rank(weighted_grid):
    for source in (0, 5, 15):
        row = rank_row(weighted_grid, source)
        for target, rank in row.items():
            assert rank == exact_rank(weighted_grid, source, target)


def test_rank_row_tie_groups_share_rank(diamond):
    # From a: b at 1, c at 2, d at 3 -> unique ranks 1, 2, 3.
    assert rank_row(diamond, "a") == {"b": 1, "c": 2, "d": 3}
    # Star with equal spokes: all leaves tie at rank 1 from the center.
    star = Graph()
    for leaf in ("x", "y", "z"):
        star.add_edge("hub", leaf, 1.0)
    assert rank_row(star, "hub") == {"x": 1, "y": 1, "z": 1}
