"""Property-based randomized sweep (seeded, stdlib ``random`` only).

~50 generated graphs spanning density, weight style, directedness and
connectivity; on each one every optimised algorithm must agree with the
naive baseline (``validate_against_naive`` raises on any mismatch), rank
rows must equal the textbook oracle's (``rank_oracle``), and the naive and
dynamic answers — every stats counter included — must reproduce the
outputs the deleted dict-graph loop recorded in ``sds_golden.json``.
"""

from __future__ import annotations

import random

import pytest

import rank_oracle
from conftest import golden, result_digest
from repro.core import (
    dynamic_reverse_k_ranks,
    naive_reverse_k_ranks,
    validate_against_naive,
)
from repro.core.hub_index import HubIndex
from repro.graph import BichromaticPartition, CompactGraph, Graph
from repro.traversal import rank_row

NUM_GRAPHS = 50

#: Weight styles: continuous, small-integer (tie-prone), near-binary (very
#: tie-heavy), and zero-inclusive (zero-weight edges are legal).
_WEIGHT_STYLES = ("uniform", "integer", "binary", "zeroes")


def _draw_weight(rng: random.Random, style: str) -> float:
    if style == "uniform":
        return round(rng.uniform(0.5, 9.5), 3)
    if style == "integer":
        return float(rng.randint(1, 6))
    if style == "binary":
        return rng.choice([1.0, 1.0, 2.0])
    return rng.choice([0.0, 1.0, 2.0])


def _random_graph(seed: int) -> Graph:
    """A graph whose shape is fully determined by ``seed``."""
    rng = random.Random(10_000 + seed)
    directed = rng.random() < 0.3
    num_nodes = rng.randint(10, 26)
    density = rng.choice([0.08, 0.15, 0.3, 0.5])
    style = _WEIGHT_STYLES[seed % len(_WEIGHT_STYLES)]
    disconnected = rng.random() < 0.25

    graph = Graph(directed=directed, name=f"sweep-{seed}")
    graph.add_nodes(range(num_nodes))
    if disconnected:
        half = num_nodes // 2
        blocks = [list(range(half)), list(range(half, num_nodes))]
    else:
        blocks = [list(range(num_nodes))]
    for block in blocks:
        for source in block:
            for target in block:
                if source == target:
                    continue
                if not directed and source > target:
                    continue
                if rng.random() < density:
                    graph.add_edge(source, target, _draw_weight(rng, style))
    return graph


def _query_nodes(graph: Graph, count: int = 2):
    nodes = sorted(graph.nodes(), key=repr)
    stride = max(1, len(nodes) // count)
    return nodes[::stride][:count]


@pytest.mark.parametrize("seed", range(NUM_GRAPHS))
def test_all_algorithms_agree_with_naive(seed):
    graph = _random_graph(seed)
    index = HubIndex.build(
        graph,
        num_hubs=max(1, graph.num_nodes // 6),
        explore_limit=max(2, graph.num_nodes // 2),
        capacity=8,
    )
    for query in _query_nodes(graph):
        for k in (1, 3, 7):
            # Raises CrossValidationError on any static/dynamic/indexed
            # disagreement with brute force; warm-index reuse across the
            # (query, k) grid is intentional — it must stay exact.
            validate_against_naive(graph, query, k, index=index)


@pytest.mark.parametrize("seed", range(NUM_GRAPHS))
def test_csr_backend_matches_dict_backend(seed):
    graph = _random_graph(seed)
    csr = CompactGraph.from_graph(graph)
    labels, results = [], []
    for query in _query_nodes(graph):
        expected_row = rank_oracle.rank_row(graph, query)
        assert rank_row(csr, query) == expected_row
        assert rank_row(graph, query) == expected_row
        for k in (1, 4):
            labels += [(query, k, "naive"), (query, k, "dynamic")]
            results += [
                naive_reverse_k_ranks(csr, query, k),
                dynamic_reverse_k_ranks(csr, query, k),
            ]
            # A dict graph compiles on entry: same answers, same counters.
            assert result_digest(naive_reverse_k_ranks(graph, query, k)) == (
                result_digest(results[-2])
            )
            assert result_digest(dynamic_reverse_k_ranks(graph, query, k)) == (
                result_digest(results[-1])
            )
    expected = list(zip(labels, golden()["sweep"][f"seed={seed}"]))
    assert list(zip(labels, map(result_digest, results))) == expected


@pytest.mark.parametrize("seed", range(0, NUM_GRAPHS, 5))
def test_bichromatic_sweep(seed):
    graph = _random_graph(seed)
    rng = random.Random(20_000 + seed)
    nodes = sorted(graph.nodes(), key=repr)
    num_facilities = max(1, len(nodes) // 3)
    facilities = rng.sample(nodes, num_facilities)
    if len(facilities) == len(nodes):  # pragma: no cover - sizes prevent this
        facilities = facilities[:-1]
    partition = BichromaticPartition(graph, facilities)
    query = sorted(partition.facilities, key=repr)[0]
    for k in (1, 3):
        validate_against_naive(graph, query, k, partition=partition)
