"""Shared fixtures: small deterministic graphs exercising every code path.

All random structure is generated from fixed seeds so failures reproduce
exactly; fixtures are session-scoped because the query algorithms never
mutate graphs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.graph import BichromaticPartition, Graph, GraphBuilder


def _gnp_graph(num_nodes: int, probability: float, seed: int, directed: bool) -> Graph:
    """Seeded G(n, p) with weights in [1, 5), built through GraphBuilder."""
    rng = random.Random(seed)
    builder = GraphBuilder(directed=directed, name=f"gnp-{num_nodes}-{seed}")
    for node in range(num_nodes):
        builder.add_node(node)
    for source in range(num_nodes):
        for target in range(num_nodes):
            if source == target or (not directed and source >= target):
                continue
            if rng.random() < probability:
                builder.add_interaction(source, target, round(rng.uniform(1.0, 5.0), 2))
    return builder.build()


def road_lattice(side, rng):
    """Segments of 1.00-1.99 plus a costlier diagonal in 8% of cells."""
    graph = Graph(name=f"road-{side}")
    graph.add_nodes(range(side * side))
    for row in range(side):
        for col in range(side):
            node = row * side + col
            if col + 1 < side:
                graph.add_edge(node, node + 1, round(rng.uniform(1.0, 2.0), 2))
            if row + 1 < side:
                graph.add_edge(node, node + side, round(rng.uniform(1.0, 2.0), 2))
            if col + 1 < side and row + 1 < side and rng.random() < 0.08:
                graph.add_edge(
                    node, node + side + 1, round(rng.uniform(1.4, 2.8), 2)
                )
    return graph


def road_traffic(rng, graph, closed, size=4):
    """Closures, re-openings and weight cuts, applied to ``graph``."""
    ops = []
    while len(ops) < size:
        roll = rng.random()
        if roll < 0.15 and closed:
            (source, target), weight = closed.popitem()
            op = ("add_edge", source, target, weight)
        else:
            source, target, weight = rng.choice(sorted(graph.edges()))
            if roll < 0.5:
                closed[(source, target)] = weight
                op = ("remove_edge", source, target)
            else:
                op = ("add_edge", source, target, round(weight * 0.7, 2))
        ops.append(op)
        if op[0] == "remove_edge":
            graph.remove_edge(source, target)
        else:
            graph.add_edge(*op[1:])
    return ops


@pytest.fixture(scope="session")
def path_graph() -> Graph:
    """0 - 1 - ... - 9 with unit weights: ranks are hand-computable."""
    graph = Graph(name="path-10")
    for node in range(9):
        graph.add_edge(node, node + 1, 1.0)
    return graph


@pytest.fixture(scope="session")
def weighted_grid() -> Graph:
    """4x4 grid with deterministic non-uniform weights (many near-ties)."""
    graph = Graph(name="grid-4x4")
    size = 4
    for row in range(size):
        for col in range(size):
            node = row * size + col
            if col + 1 < size:
                graph.add_edge(node, node + 1, 1.0 + ((row + col) % 3) * 0.5)
            if row + 1 < size:
                graph.add_edge(node, node + size, 1.0 + ((row * col) % 4) * 0.25)
    return graph


@pytest.fixture(scope="session")
def random_gnp() -> Graph:
    """Seeded undirected G(n=22, p=0.2)."""
    return _gnp_graph(22, 0.2, seed=7, directed=False)


@pytest.fixture(scope="session")
def directed_gnp() -> Graph:
    """Seeded directed G(n=16, p=0.22)."""
    return _gnp_graph(16, 0.22, seed=11, directed=True)


@pytest.fixture(scope="session")
def tie_heavy_graph() -> Graph:
    """Seeded graph with few distinct weights, forcing distance ties."""
    rng = random.Random(23)
    graph = Graph(name="tie-heavy")
    for node in range(18):
        graph.add_node(node)
    for source in range(18):
        for target in range(source + 1, 18):
            if rng.random() < 0.25:
                graph.add_edge(source, target, rng.choice([1.0, 1.0, 2.0]))
    return graph


@pytest.fixture(scope="session")
def bichromatic_case(random_gnp) -> BichromaticPartition:
    """Every third node of the random graph is a facility (V2)."""
    facilities = [node for node in random_gnp.nodes() if node % 3 == 0]
    return BichromaticPartition(random_gnp, facilities)


@pytest.fixture(
    scope="session",
    params=["path", "grid", "gnp", "directed", "ties"],
)
def any_graph(request, path_graph, weighted_grid, random_gnp, directed_gnp, tie_heavy_graph):
    """Every fixture graph in turn, for cross-cutting correctness tests."""
    return {
        "path": path_graph,
        "grid": weighted_grid,
        "gnp": random_gnp,
        "directed": directed_gnp,
        "ties": tie_heavy_graph,
    }[request.param]


def sample_queries(graph, count: int = 3):
    """A deterministic spread of query nodes for a fixture graph."""
    nodes = sorted(graph.nodes(), key=repr)
    if len(nodes) <= count:
        return nodes
    stride = max(1, len(nodes) // count)
    return nodes[::stride][:count]


@functools.lru_cache(maxsize=None)
def golden():
    """``sds_golden.json``: outputs the deleted dict-graph loop produced."""
    return json.loads((Path(__file__).with_name("sds_golden.json")).read_text())


def result_digest(result) -> str:
    """SHA-256 of a result's pairs and every stats counter but wall-clock."""
    stats = result.stats.as_dict()
    stats.pop("elapsed_seconds")
    record = {"pairs": [list(pair) for pair in result.as_pairs()], "stats": stats}
    encoded = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def index_signature(index):
    """A hub index's exported state minus its graph version.

    ``graph.copy()`` re-counts mutations from zero, so the versions of a
    graph and its shadow copy legitimately differ; nothing else may.
    """
    state = index.export_state()
    state.pop("graph_version")
    return state


def edge_changes(before, after):
    """The net edge changes from graph ``before`` to graph ``after``.

    ``(u, v, weight before, weight after)``, ``None`` for an absent edge;
    an undirected edge is listed both ways, as ``HubIndex.repair`` reads
    it.
    """
    directed = after.directed

    def weights(graph):
        return {
            (u, v) if directed else frozenset((u, v)): (u, v, w)
            for u, v, w in graph.edges()
        }

    old, new = weights(before), weights(after)
    changes = []
    for key in old.keys() | new.keys():
        u, v, _ = old.get(key) or new[key]
        pair = [None if key not in side else side[key][2] for side in (old, new)]
        if pair[0] != pair[1]:
            changes.append((u, v, *pair))
            if not directed:
                changes.append((v, u, *pair))
    return changes


def distance_test_keeps(hub, row, dists, edges, limit):
    """The distance test ``HubIndex.repair``'s disturbance bound replaced.

    The hub is kept when it is no endpoint of ``edges`` and no change is
    a tight removal, an improving insert or an insert landing within the
    radius.  The bound must keep every hub this keeps.
    """
    radius = dists[-1] if len(dists) >= limit else float("inf")
    for source, target, before, after in edges:
        if hub in (source, target):
            return False
        if source not in row:
            continue
        reach = dists[row[source] - 1]
        far = dists[row[target] - 1] if target in row else None
        if before is not None and (after is None or after > before):
            if far is not None and reach + before == far:
                return False
        if after is not None and (before is None or after < before):
            landing = reach + after
            if landing <= radius if far is None else landing < far:
                return False
    return True
