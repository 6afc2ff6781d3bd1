"""Tests for the effectiveness-study competitor queries (top-k, reverse top-k)."""

from __future__ import annotations

import pytest

from repro.core import (
    agreement_rate,
    naive_reverse_k_ranks,
    reverse_top_k,
    reverse_top_k_all_sizes,
    top_k_nodes,
)
from repro.errors import InvalidKError, NodeNotFoundError
from repro.graph import CompactGraph

from conftest import golden

#: The k values ``sds_golden.json`` pins top-k answers for.
PINNED_KS = (1, 2, 3, 5, 8)


def test_top_k_nodes_on_path(path_graph):
    # Nearest to node 0 are 1, 2, 3 in order.
    assert top_k_nodes(path_graph, 0, 3) == [1, 2, 3]
    # Interior node: both sides, distance order.
    nearest = top_k_nodes(path_graph, 5, 4)
    assert set(nearest) == {3, 4, 6, 7}


def test_reverse_top_k_matches_topk_membership(weighted_grid):
    for k in (1, 3, 5):
        expected = sorted(
            (
                node
                for node in weighted_grid.nodes()
                if node != 5 and 5 in top_k_nodes(weighted_grid, node, k)
            ),
            key=repr,
        )
        assert reverse_top_k(weighted_grid, 5, k) == expected


def test_reverse_top_k_all_sizes_nested(random_gnp):
    results = reverse_top_k_all_sizes(random_gnp, 0, [1, 3, 6])
    assert set(results) == {1, 3, 6}
    assert set(results[1]) <= set(results[3]) <= set(results[6])
    for k, members in results.items():
        assert members == reverse_top_k(random_gnp, 0, k)


def test_reverse_top_k_result_size_is_uncontrollable(path_graph):
    # The paper's motivating deficiency: result sizes cannot be steered.
    # Node 0 is the top-1 of its sole neighbour, while node 9 is in
    # nobody's top-1 (node 8's distance tie settles 7 first), so the
    # reverse top-1 of 9 is empty.
    assert reverse_top_k(path_graph, 0, 1) == [1]
    assert reverse_top_k(path_graph, 9, 1) == []
    # Whereas reverse k-ranks always returns k nodes (graph permitting).
    assert len(naive_reverse_k_ranks(path_graph, 0, 4)) == 4
    assert len(naive_reverse_k_ranks(path_graph, 9, 4)) == 4


def test_reverse_top_k_validates_arguments(path_graph):
    with pytest.raises(InvalidKError):
        reverse_top_k(path_graph, 0, 0)
    with pytest.raises(NodeNotFoundError):
        reverse_top_k(path_graph, "missing", 2)
    assert reverse_top_k_all_sizes(path_graph, 0, []) == {}


def test_agreement_rate_values(random_gnp):
    result = naive_reverse_k_ranks(random_gnp, 0, 4)
    assert agreement_rate(result, result) == 1.0
    assert agreement_rate(result, result.nodes()) == 1.0
    assert agreement_rate([], []) == 1.0
    assert agreement_rate([1, 2], [3, 4]) == 0.0
    assert agreement_rate([1, 2, 3], [2, 3, 4]) == pytest.approx(0.5)


def test_agreement_between_queries_is_bounded(random_gnp):
    reverse_ranks = naive_reverse_k_ranks(random_gnp, 0, 5)
    reverse_topk_nodes = reverse_top_k(random_gnp, 0, 5)
    rate = agreement_rate(reverse_ranks, reverse_topk_nodes)
    assert 0.0 <= rate <= 1.0


@pytest.mark.parametrize("fixture", ["weighted_grid", "tie_heavy_graph"])
def test_top_k_tie_order_is_pinned(fixture, request):
    # Equal-distance nodes keep the order the search first reached them;
    # breaking those ties by node index instead would change 14 of the 80
    # grid lists and 37 of the 90 tie-heavy ones.
    graph = request.getfixturevalue(fixture)
    nodes = sorted(graph.nodes())
    pinned = golden()["topk"][fixture]
    for target in (graph, CompactGraph.from_graph(graph)):
        for k in PINNED_KS:
            assert [top_k_nodes(target, node, k) for node in nodes] == (
                pinned["top_k_nodes"][str(k)]
            ), k
            assert [reverse_top_k(target, node, k) for node in nodes] == (
                pinned["reverse_top_k"][str(k)]
            ), k
