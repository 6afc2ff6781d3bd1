"""Textbook Dijkstra and Definition-1 rank: the tests' independent oracle.

It reads a graph only through ``Graph.neighbor_items`` and imports nothing
from ``repro.traversal`` or ``repro.graph.csr``, so a bug in the CSR
compiler or in the array search loops cannot hide in both the answer and
the check.  Float distances match the library's bit for bit: each node's
distance is the minimum over the same sums ``d(u) + w(u, v)``, whatever
order equal-distance nodes settle in.
"""

from __future__ import annotations

import heapq
import itertools
import math


def distances(graph, source):
    """``{node: d(source, node)}`` for every node reachable from ``source``."""
    best = {source: 0.0}
    done = {}
    order = itertools.count()  # node ids need not be comparable
    heap = [(0.0, next(order), source)]
    while heap:
        distance, _, node = heapq.heappop(heap)
        if node in done:
            continue
        done[node] = distance
        for neighbor, weight in graph.neighbor_items(node):
            candidate = distance + weight
            if neighbor not in done and candidate < best.get(neighbor, math.inf):
                best[neighbor] = candidate
                heapq.heappush(heap, (candidate, next(order), neighbor))
    return done


def rank(graph, source, target, counted=None):
    """``Rank(source, target)``: one plus the counted nodes strictly closer
    to ``source`` than ``target`` is; ``inf`` when ``target`` is unreachable."""
    return _rank(distances(graph, source), source, target, counted)


def rank_row(graph, source, counted=None):
    """``{target: Rank(source, target)}`` for every reachable ``target``."""
    dist = distances(graph, source)
    return {
        target: _rank(dist, source, target, counted)
        for target in dist if target != source
    }


def _rank(dist, source, target, counted):
    if target not in dist:
        return math.inf
    closer = [
        node for node, value in dist.items()
        if value < dist[target] and node not in (source, target)
        and (counted is None or counted(node))
    ]
    return 1 + len(closer)
