"""The CompactGraph CSR compilation and the searches that run on it.

The compilation must preserve node and adjacency iteration order and copy
weights bit-for-bit.  Distances and ranks are checked against the textbook
oracle (``rank_oracle``), which reads the dict graph directly, so a
compiler bug cannot hide in both sides of a comparison; entry points handed
the dict graph (compiled on entry) must answer exactly like those handed
the compilation.
"""

from __future__ import annotations

import pytest

import rank_oracle
from repro.centrality import approximate_closeness_centrality, closeness_centrality
from repro.core import (
    HubIndex,
    dynamic_reverse_k_ranks,
    naive_reverse_k_ranks,
    reverse_top_k_all_sizes,
    static_reverse_k_ranks,
)
from repro.errors import EdgeNotFoundError, NodeNotFoundError
from repro.graph import CompactGraph, Graph
from repro.traversal import exact_rank, shortest_path_distances

from conftest import sample_queries
from rank_rows import rank_row


@pytest.fixture()
def compiled(any_graph):
    return any_graph, CompactGraph.from_graph(any_graph)


def test_compilation_preserves_structure(compiled):
    graph, csr = compiled
    assert csr.num_nodes == graph.num_nodes
    assert csr.num_edges == graph.num_edges
    assert csr.directed == graph.directed
    assert list(csr.nodes()) == list(graph.nodes())
    for node in graph.nodes():
        assert csr.has_node(node)
        assert csr.out_degree(node) == graph.out_degree(node)
        assert csr.in_degree(node) == graph.in_degree(node)
        assert dict(csr.neighbor_items(node)) == dict(graph.neighbor_items(node))
        assert dict(csr.in_neighbor_items(node)) == dict(graph.in_neighbor_items(node))
    assert sorted(csr.edges(), key=repr) == sorted(graph.edges(), key=repr)


def test_adjacency_iteration_order_matches_dict_backend(compiled):
    graph, csr = compiled
    for node in graph.nodes():
        assert list(csr.neighbor_items(node)) == list(graph.neighbor_items(node))
        assert list(csr.in_neighbor_items(node)) == list(graph.in_neighbor_items(node))


def test_distances_bit_identical(compiled):
    graph, csr = compiled
    for source in sample_queries(graph):
        expected = rank_oracle.distances(graph, source)
        assert shortest_path_distances(csr, source) == expected
        assert shortest_path_distances(graph, source) == expected


def test_ranks_bit_identical(compiled):
    graph, csr = compiled
    for source in sample_queries(graph):
        expected = rank_oracle.rank_row(graph, source)
        assert rank_row(csr, source) == expected
        assert rank_row(graph, source) == expected
        for target in sample_queries(graph, 2):
            rank = rank_oracle.rank(graph, source, target)
            assert exact_rank(csr, source, target) == rank
            assert exact_rank(graph, source, target) == rank


def test_query_results_identical_across_backends(compiled):
    graph, csr = compiled
    for query in sample_queries(graph):
        for k in (1, 3):
            for algorithm in (
                naive_reverse_k_ranks,
                static_reverse_k_ranks,
                dynamic_reverse_k_ranks,
            ):
                pairs = algorithm(csr, query, k).as_pairs()
                assert algorithm(graph, query, k).as_pairs() == pairs
                for node, rank in pairs:
                    assert rank == rank_oracle.rank(graph, node, query)


def test_missing_nodes_raise(random_gnp):
    csr = CompactGraph.from_graph(random_gnp)
    with pytest.raises(NodeNotFoundError):
        csr.index_of("missing")
    with pytest.raises(NodeNotFoundError):
        list(csr.neighbor_items("missing"))
    with pytest.raises(NodeNotFoundError):
        shortest_path_distances(csr, "missing")
    with pytest.raises(EdgeNotFoundError):
        csr.weight(0, 0)


def test_empty_and_single_node_graphs():
    empty = CompactGraph.from_graph(Graph())
    assert empty.num_nodes == 0
    assert empty.num_edges == 0
    assert list(empty.nodes()) == []

    single = Graph()
    single.add_node("only")
    csr = CompactGraph.from_graph(single)
    assert csr.num_nodes == 1
    assert shortest_path_distances(csr, "only") == {"only": 0.0}
    assert exact_rank(csr, "only", "only") == 1


def test_compact_graph_is_frozen(random_gnp):
    csr = CompactGraph.from_graph(random_gnp)
    assert not hasattr(csr, "add_edge")
    assert not hasattr(csr, "add_node")
    assert not hasattr(csr, "remove_edge")
    with pytest.raises(AttributeError):
        csr.extra_attribute = 1  # __slots__ blocks new attributes


def test_source_version_snapshot(random_gnp):
    csr = CompactGraph.from_graph(random_gnp)
    assert csr.source_version == random_gnp.version


def test_round_trip_to_graph(compiled):
    graph, csr = compiled
    assert csr.to_graph().structurally_equal(graph)


def test_weight_and_has_edge(compiled):
    graph, csr = compiled
    for source, target, weight in list(graph.edges())[:10]:
        assert csr.has_edge(source, target)
        assert csr.weight(source, target) == weight
    assert not csr.has_edge(
        next(iter(graph.nodes())), next(iter(graph.nodes()))
    )


@pytest.mark.parametrize(
    "call",
    [
        "naive",
        "closeness",
        "approximate_closeness",
        "reverse_top_k_all_sizes",
        "hub_index_build",
        "hub_index_build_closeness",
        "hub_index_repair",
    ],
)
def test_entry_points_compile_once_per_call(random_gnp, monkeypatch, call):
    # Handed a dict graph, each entry point compiles it once and loops over
    # that compilation — never once per candidate, source or hub.
    graph = random_gnp.copy()
    index = HubIndex.build(graph, num_hubs=4, explore_limit=6, capacity=4)
    graph.add_edge(0, 1, 0.25)
    compiles = []
    compile_graph = CompactGraph.from_graph.__func__

    def counting(cls, source):
        compiles.append(source)
        return compile_graph(cls, source)

    monkeypatch.setattr(CompactGraph, "from_graph", classmethod(counting))
    run = {
        "naive": lambda: naive_reverse_k_ranks(graph, 0, 3),
        "closeness": lambda: closeness_centrality(graph),
        "approximate_closeness": lambda: approximate_closeness_centrality(graph),
        "reverse_top_k_all_sizes": lambda: reverse_top_k_all_sizes(graph, 0, [1, 3]),
        "hub_index_build": lambda: HubIndex.build(graph, num_hubs=4, capacity=4),
        "hub_index_build_closeness": lambda: HubIndex.build(
            graph, num_hubs=4, capacity=4, strategy="closeness"
        ),
        "hub_index_repair": lambda: index.repair([0, 1], conservative=True),
    }[call]
    run()
    assert compiles == [graph]
