"""Closeness centrality, exact and sampled.

The paper defines closeness as the reciprocal of *farness*
``C(v) = 1 / sum_u d(u, v)`` and — because exact computation is
O(|V|·|E|) — approximates it by sampling a small number of source vertices
and averaging distances from the samples (Section 5.1, citing [1, 3]).

Both variants are provided:

* :func:`closeness_centrality` — exact, one SSSP per node, only sensible for
  small graphs and used as ground truth in tests;
* :func:`approximate_closeness_centrality` — the sampling estimator that the
  *Closeness First* hub strategy actually uses.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Optional

from repro.graph.csr import as_compact
from repro.graph.graph import Graph
from repro.traversal.dijkstra import shortest_path_distances

NodeId = Hashable

__all__ = [
    "closeness_centrality",
    "approximate_closeness_centrality",
    "nodes_by_closeness",
]


def closeness_centrality(graph: Graph) -> Dict[NodeId, float]:
    """Exact closeness centrality ``C(v) = 1 / sum_u d(u, v)``.

    Distances *towards* ``v`` are required (the definition sums ``d(u, v)``),
    so a single SSSP per node on the transpose of one compilation is used.
    Unreachable pairs contribute nothing (they are skipped rather than
    adding infinity), matching the usual treatment on disconnected graphs.
    Nodes that no other node can reach get centrality ``0``.
    """
    reverse = as_compact(graph).reverse_view()
    centrality: Dict[NodeId, float] = {}
    for node in reverse.nodes():
        distances = shortest_path_distances(reverse, node)
        farness = sum(
            distance for other, distance in distances.items() if other != node
        )
        centrality[node] = 1.0 / farness if farness > 0 else 0.0
    return centrality


def approximate_closeness_centrality(
    graph: Graph,
    num_samples: int = 16,
    rng: Optional[random.Random] = None,
) -> Dict[NodeId, float]:
    """Sampled closeness centrality.

    ``num_samples`` source vertices are drawn uniformly at random; distances
    from each sample to every vertex are computed with one SSSP run per
    sample, and the farness of a vertex is estimated from the sampled
    distances scaled up to the full population.

    Parameters
    ----------
    graph:
        The graph.
    num_samples:
        Number of sampled sources (clamped to ``|V|``).
    rng:
        Random generator for reproducibility.
    """
    rng = rng or random.Random(0)
    nodes: List[NodeId] = list(graph.nodes())
    if not nodes:
        return {}
    num_samples = min(num_samples, len(nodes))
    samples = rng.sample(nodes, num_samples)

    csr = as_compact(graph)
    totals: Dict[NodeId, float] = {node: 0.0 for node in nodes}
    counts: Dict[NodeId, int] = {node: 0 for node in nodes}
    for sample in samples:
        # d(sample, v) for all v: one SSSP from the sample on the original
        # graph (distances *from* samples approximate the farness sum).
        distances = shortest_path_distances(csr, sample)
        for node, distance in distances.items():
            if node == sample:
                continue
            totals[node] += distance
            counts[node] += 1

    scale = max(len(nodes) - 1, 1)
    centrality: Dict[NodeId, float] = {}
    for node in nodes:
        if counts[node] == 0:
            centrality[node] = 0.0
            continue
        estimated_farness = totals[node] / counts[node] * scale
        centrality[node] = 1.0 / estimated_farness if estimated_farness > 0 else 0.0
    return centrality


def nodes_by_closeness(
    graph: Graph,
    approximate: bool = True,
    num_samples: int = 16,
    rng: Optional[random.Random] = None,
) -> List[NodeId]:
    """Nodes sorted by (approximate) closeness centrality, most central first."""
    if approximate:
        centrality = approximate_closeness_centrality(graph, num_samples=num_samples, rng=rng)
    else:
        centrality = closeness_centrality(graph)
    return sorted(
        graph.nodes(),
        key=lambda node: (centrality[node], repr(node)),
        reverse=True,
    )
