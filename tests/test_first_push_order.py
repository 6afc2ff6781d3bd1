"""The first-push settle order, checked against a textbook Dijkstra.

The SDS tree, its rank refinements and the top-k stream
(``insertion_order_stream``) keep the paper's queue ``Q`` as a ``heapq``
list of ``(distance, first_push, index)`` tuples with lazy deletion: a node
keeps its first-push number when its distance drops.  The reference here is
the textbook search with decrease-key on the addressable heap
(``addressable_heap.py``), whose ties break by insertion order and whose
``decrease_key`` keeps an item's insertion counter.  Both must settle the
same nodes at the same distances in the same order, ties included; the
golden digests of the SDS loops (``sds_golden.json``) rest on that order.
"""

from __future__ import annotations

import random

import pytest

from addressable_heap import AddressableHeap
from repro.graph import CompactGraph, Graph
from repro.traversal import k_nearest_nodes
from repro.traversal.csr_ops import insertion_order_stream


def reference_order(graph, csr, source):
    """``(index, distance)`` in settle order of the addressable-heap search."""
    heap = AddressableHeap()
    heap.push(source, 0.0)
    settled = set()
    order = []
    while heap:
        node, distance = heap.pop()
        settled.add(node)
        order.append((csr.index_of(node), distance))
        for neighbor, weight in graph.neighbor_items(node):
            if neighbor not in settled:
                heap.push_or_decrease(neighbor, distance + weight)
    return order


def tie_heavy_graph(seed):
    """A seeded graph whose few distinct weights force distance ties.

    Node ids are added in a shuffled order and edges in another, so index
    order, id order and first-push order disagree.
    """
    rng = random.Random(90_000 + seed)
    directed = bool(seed % 2)
    num_nodes = rng.randint(6, 30)
    graph = Graph(directed=directed, name=f"ties-{seed}")
    nodes = list(range(num_nodes))
    rng.shuffle(nodes)
    for node in nodes:
        graph.add_node(node)
    pairs = [
        (source, target)
        for source in range(num_nodes)
        for target in range(num_nodes)
        if source != target and (directed or source < target)
    ]
    rng.shuffle(pairs)
    probability = rng.choice([0.15, 0.3])
    for source, target in pairs:
        if rng.random() < probability:
            graph.add_edge(source, target, rng.choice([0.0, 1.0, 1.0, 2.0, 3.0]))
    return graph


@pytest.mark.parametrize("seed", range(20))
def test_stream_matches_addressable_heap_dijkstra(seed):
    graph = tie_heavy_graph(seed)
    csr = CompactGraph.from_graph(graph)
    for source in graph.nodes():
        expected = reference_order(graph, csr, source)
        stream = list(insertion_order_stream(csr, csr.index_of(source)))
        assert stream == expected, (seed, source)


def test_decreased_node_keeps_its_first_push():
    # s reaches x at 5, then y and z at 2; settling a drops x to 2 too.
    # In the tie group {x, y, z} at 2, first-push order is x, y, z;
    # latest-push order is y, z, x; index order is z, y, x.
    graph = Graph(directed=True, name="first-push")
    for node in ("s", "a", "z", "y", "x"):
        graph.add_node(node)
    graph.add_edge("s", "x", 5.0)
    graph.add_edge("s", "a", 1.0)
    graph.add_edge("s", "y", 2.0)
    graph.add_edge("s", "z", 2.0)
    graph.add_edge("a", "x", 1.0)
    csr = CompactGraph.from_graph(graph)
    expected = [("s", 0.0), ("a", 1.0), ("x", 2.0), ("y", 2.0), ("z", 2.0)]
    stream = insertion_order_stream(csr, csr.index_of("s"))
    assert [(csr.node_at(index), distance) for index, distance in stream] == expected
    assert reference_order(graph, csr, "s") == [
        (csr.index_of(node), distance) for node, distance in expected
    ]
    assert k_nearest_nodes(graph, "s", 3) == expected[1:4]
