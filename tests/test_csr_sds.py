"""The SDS-tree pipeline against the outputs of the deleted dict-graph loop.

Every query runs on the CSR compilation (:mod:`repro.traversal.csr_sds`).
Before the dict-graph twin of that pipeline was deleted, its outputs on
these cases were recorded in ``sds_golden.json``: ranks, result nodes and
— the stronger bar — every :class:`~repro.core.types.QueryStats` counter
(``rank_refinements`` above all, the paper's pruning-power proxy).  These
tests sweep directed, tie-heavy and bichromatic fixtures, every
``BoundSet`` ablation, and the hub-indexed algorithm, handing each entry
point the dict graph (compiled on entry), the compilation itself, and the
graph plus a ``backend`` compilation.
"""

from __future__ import annotations

import random

import pytest

from conftest import golden, result_digest
from rank_oracle import distances as oracle_distances
from repro.core.bichromatic import bichromatic_reverse_k_ranks
from repro.core.config import BoundSet
from repro.core.hub_index import HubIndex
from repro.core.sds_dynamic import dynamic_reverse_k_ranks
from repro.core.sds_static import static_reverse_k_ranks
from repro.errors import GraphValidationError
from repro.core.sds_indexed import indexed_reverse_k_ranks
from repro.graph import BichromaticPartition, CompactGraph, Graph
from repro.traversal import shortest_path_distances

BOUND_PRESETS = [
    BoundSet.none(),
    BoundSet.parent_only(),
    BoundSet.parent_and_count(),
    BoundSet.parent_and_height(),
    BoundSet.all(),
]


def random_graph(seed: int, num_nodes: int = 40, directed: bool = False,
                 tie_heavy: bool = False) -> Graph:
    rng = random.Random(7_000 + seed)
    graph = Graph(directed=directed, name=f"parity-{seed}")
    graph.add_nodes(range(num_nodes))
    for source in range(num_nodes):
        for target in range(source + 1 if not directed else 0, num_nodes):
            if source == target:
                continue
            if rng.random() < 7.0 / num_nodes:
                weight = (
                    float(rng.randint(1, 3)) if tie_heavy
                    else round(rng.uniform(1.0, 10.0), 2)
                )
                graph.add_edge(source, target, weight)
    return graph


def assert_matches_golden(section, key, labels, results):
    """``results[i]`` (for case ``labels[i]``) reproduce the recorded digests."""
    expected = list(zip(labels, golden()[section][key]))
    assert list(zip(labels, map(result_digest, results))) == expected


# ----------------------------------------------------------------------
# Static + dynamic parity across fixture shapes and bound ablations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("tie_heavy", [False, True])
def test_dynamic_parity_including_refinement_counts(seed, directed, tie_heavy):
    graph = random_graph(seed, directed=directed, tie_heavy=tie_heavy)
    csr = CompactGraph.from_graph(graph)
    key = f"seed={seed},directed={directed},tie_heavy={tie_heavy}"
    labels, on_graph, on_csr, on_backend = [], [], [], []
    for query in (0, 13, 27):
        for k in (1, 5):
            for bounds in BOUND_PRESETS:
                labels.append((query, k, bounds.label()))
                on_graph.append(
                    dynamic_reverse_k_ranks(graph, query, k, bounds=bounds)
                )
                on_csr.append(dynamic_reverse_k_ranks(csr, query, k, bounds=bounds))
                on_backend.append(
                    dynamic_reverse_k_ranks(
                        graph, query, k, bounds=bounds, backend=csr
                    )
                )
    for results in (on_graph, on_csr, on_backend):
        assert_matches_golden("dynamic", key, labels, results)


@pytest.mark.parametrize("seed", range(4))
def test_static_parity(seed):
    graph = random_graph(seed, tie_heavy=True)
    csr = CompactGraph.from_graph(graph)
    labels = [(query, 4) for query in (0, 20)]
    for target in (graph, csr):
        results = [static_reverse_k_ranks(target, query, 4) for query in (0, 20)]
        assert_matches_golden("static", f"seed={seed}", labels, results)


# ----------------------------------------------------------------------
# Indexed parity (twin deterministic indexes, learning included)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_indexed_parity_with_warm_index_learning(seed):
    graph = random_graph(seed, num_nodes=36)
    csr = CompactGraph.from_graph(graph)
    build = dict(num_hubs=5, explore_limit=20, capacity=8)
    recorded = golden()["indexed"][f"seed={seed}"]
    # One index is handed the compilation, its twin compiles the graph on
    # entry; both must record the same entries.
    for index, backend in (
        (HubIndex.build(graph, backend=csr, **build), csr),
        (HubIndex.build(graph, **build), None),
    ):
        # Repeated queries keep the index learning; the recorded outputs
        # must survive the warm-index feedback loop, not just the first
        # query.
        labels, results = [], []
        for query in (0, 11, 23, 11):
            for k in (2, 6):
                labels.append((query, k))
                results.append(
                    indexed_reverse_k_ranks(
                        graph, query, k, index=index, backend=backend
                    )
                )
        assert list(zip(labels, map(result_digest, results))) == list(
            zip(labels, recorded["results"])
        )
        assert index.num_known_ranks == recorded["known_ranks"]
        assert index.content_digest() == recorded["index_digest"]


# ----------------------------------------------------------------------
# Bichromatic parity (candidate/counted predicate masks)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("tie_heavy", [False, True])
def test_bichromatic_parity(seed, tie_heavy):
    graph = random_graph(seed, num_nodes=36, tie_heavy=tie_heavy)
    csr = CompactGraph.from_graph(graph)
    facilities = random.Random(seed).sample(range(36), 12)
    partition = BichromaticPartition(graph, facilities)
    query = sorted(partition.facilities)[0]
    labels = [
        (k, bounds.label())
        for k in (1, 4)
        for bounds in (BoundSet.none(), BoundSet.all())
    ]
    for backend in (None, csr):
        results = [
            bichromatic_reverse_k_ranks(
                partition, query, k, bounds=bounds, backend=backend
            )
            for k in (1, 4)
            for bounds in (BoundSet.none(), BoundSet.all())
        ]
        assert_matches_golden(
            "bichromatic", f"seed={seed},tie_heavy={tie_heavy}", labels, results
        )


# ----------------------------------------------------------------------
# Backend freshness validation
# ----------------------------------------------------------------------
def test_stale_backend_rejected():
    graph = random_graph(0)
    csr = CompactGraph.from_graph(graph)
    graph.add_edge(0, 39, 1.0)
    with pytest.raises(GraphValidationError):
        dynamic_reverse_k_ranks(graph, 0, 2, backend=csr)


def test_foreign_backend_rejected():
    graph = random_graph(0)
    other = random_graph(1, num_nodes=10)
    with pytest.raises(GraphValidationError):
        dynamic_reverse_k_ranks(graph, 0, 2, backend=CompactGraph.from_graph(other))


def test_foreign_backend_with_identical_shape_rejected():
    # Two independently built graphs with the same construction sequence
    # share node count AND mutation version; only the source-identity
    # weakref can tell their compilations apart.
    twin_a = random_graph(0)
    twin_b = random_graph(0)
    assert twin_a.version == twin_b.version
    with pytest.raises(GraphValidationError, match="different graph"):
        dynamic_reverse_k_ranks(
            twin_b, 0, 2, backend=CompactGraph.from_graph(twin_a)
        )


def test_non_compact_backend_rejected():
    graph = random_graph(0)
    with pytest.raises(GraphValidationError):
        dynamic_reverse_k_ranks(graph, 0, 2, backend=graph)


def test_transposed_backend_rejected():
    # A reverse_view shares source identity, node count and version with
    # the forward compilation, but its adjacency roles are swapped —
    # the freshness gate must not let it traverse as the forward graph.
    graph = random_graph(2, directed=True)
    reverse = CompactGraph.from_graph(graph).reverse_view()
    assert reverse.is_transposed
    with pytest.raises(GraphValidationError, match="transposed"):
        dynamic_reverse_k_ranks(graph, 0, 2, backend=reverse)
    # Double reversal restores the forward orientation.
    assert not reverse.reverse_view().is_transposed


# ----------------------------------------------------------------------
# Reverse views over CompactGraph stay compact
# ----------------------------------------------------------------------
def test_transpose_view_of_compact_graph_is_compact():
    graph = random_graph(3, directed=True)
    csr = CompactGraph.from_graph(graph)
    reverse = csr.reverse_view()
    assert getattr(reverse, "is_compact", False)
    # Swapped adjacency: out-neighbours of the reverse are in-neighbours
    # of the original, in identical order.
    for node in (0, 7, 21):
        assert list(reverse.neighbor_items(node)) == list(csr.in_neighbor_items(node))
        assert list(reverse.in_neighbor_items(node)) == list(csr.neighbor_items(node))
        assert reverse.out_degree(node) == csr.in_degree(node)


def test_reverse_view_distances_match_dict_transpose():
    graph = random_graph(5, directed=True)
    csr = CompactGraph.from_graph(graph)
    fast = shortest_path_distances(csr.reverse_view(), 4)
    assert fast == oracle_distances(graph.transpose(), 4)


def test_reverse_view_of_undirected_graph_is_itself():
    csr = CompactGraph.from_graph(random_graph(1))
    assert csr.reverse_view() is csr
