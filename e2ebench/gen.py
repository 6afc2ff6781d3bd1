"""Seeded benchmark inputs: graphs, query streams and update operations.

Everything a workload feeds the program is generated here from the run's
seed, so a change to program code (for example ``repro.bench.workloads``)
cannot silently change a workload.  The program only ever sees the
results: an edge-list file, ``Graph.add_edge`` calls, query node ids and
``apply_updates`` operation tuples.

:class:`Adjacency` is the benchmark's own copy of a graph.  The answer
oracle runs on it, and in ``mixed-road`` it is the shadow that mirrors
every update the program is sent.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, Tuple

Edge = Tuple[int, int, float]


def road_lattice(side: int, rng: random.Random) -> List[Edge]:
    """A ``side``x``side`` road-like grid: segment lengths in [1, 2) with
    two decimals, and 8% of cells gaining a costlier diagonal connector."""
    edges: List[Edge] = []
    for row in range(side):
        for col in range(side):
            node = row * side + col
            if col + 1 < side:
                edges.append((node, node + 1, round(rng.uniform(1.0, 2.0), 2)))
            if row + 1 < side:
                edges.append((node, node + side, round(rng.uniform(1.0, 2.0), 2)))
            if col + 1 < side and row + 1 < side and rng.random() < 0.08:
                edges.append(
                    (node, node + side + 1, round(rng.uniform(1.4, 2.8), 2))
                )
    return edges


def write_edge_list(edges: List[Edge], path) -> None:
    """Write ``source target weight`` lines; ``repr`` keeps weights exact."""
    with open(path, "w", encoding="utf-8") as handle:
        for source, target, weight in edges:
            handle.write(f"{source} {target} {weight!r}\n")


class Adjacency:
    """Undirected weighted adjacency (node -> {neighbor: weight}).

    Mirrors the program's ``Graph`` semantics for the operations the
    benchmark sends: parallel edges keep the minimum weight.
    """

    def __init__(self, edges: List[Edge]) -> None:
        self.rows: Dict[int, Dict[int, float]] = {}
        for source, target, weight in edges:
            self.add_edge(source, target, weight)

    def add_edge(self, source: int, target: int, weight: float) -> None:
        row = self.rows.setdefault(source, {})
        if target not in row or weight < row[target]:
            row[target] = weight
            self.rows.setdefault(target, {})[source] = weight
        else:
            self.rows.setdefault(target, {})

    def remove_edge(self, source: int, target: int) -> None:
        del self.rows[source][target]
        del self.rows[target][source]

    def weight(self, source: int, target: int):
        return self.rows.get(source, {}).get(target)

    def apply(self, op: tuple) -> None:
        if op[0] == "add_edge":
            self.add_edge(op[1], op[2], op[3])
        elif op[0] == "remove_edge":
            self.remove_edge(op[1], op[2])
        else:
            raise ValueError(f"the benchmark never sends {op!r}")


def zipf_stream(nodes: List[int], rng: random.Random, exponent: float = 1.0):
    """A draw() returning nodes with P(i-th of a seeded permutation) ~ 1/i^s."""
    order = list(nodes)
    rng.shuffle(order)
    cumulative = []
    total = 0.0
    for position in range(len(order)):
        total += 1.0 / (position + 1) ** exponent
        cumulative.append(total)

    def draw(source: random.Random) -> int:
        position = bisect.bisect_left(cumulative, source.random() * total)
        return order[min(position, len(order) - 1)]

    return draw


class RoadTraffic:
    """Seeded stream of road-traffic update batches over a lattice.

    Each operation is one of: a closure (remove an open road segment), a
    re-opening of an earlier closure, a weight cut (a faster segment,
    sent as ``add_edge`` with a strictly lower weight) or a new link (a
    diagonal connector that did not exist).  Every operation changes the
    graph, so the program reports no no-ops and none fails.  Operations
    are applied to ``shadow`` as they are generated.
    """

    def __init__(self, side: int, shadow: Adjacency, rng: random.Random) -> None:
        self._side = side
        self._shadow = shadow
        self._rng = rng
        self._roads = sorted(
            (source, target)
            for source, row in shadow.rows.items()
            for target in row
            if source < target
        )
        self._closed: Dict[Tuple[int, int], float] = {}

    def batch(self, size: int) -> List[tuple]:
        ops = []
        while len(ops) < size:
            op = self._one()
            if op is not None:
                self._shadow.apply(op)
                ops.append(op)
        return ops

    def _one(self):
        rng = self._rng
        shadow = self._shadow
        roll = rng.random()
        if roll < 0.15 and self._closed:
            road = rng.choice(sorted(self._closed))
            return ("add_edge", road[0], road[1], self._closed.pop(road))
        source, target = self._roads[rng.randrange(len(self._roads))]
        weight = shadow.weight(source, target)
        if roll < 0.5:
            # Closure; keep both ends reachable by at least two roads.
            if (
                weight is None
                or len(shadow.rows[source]) < 3
                or len(shadow.rows[target]) < 3
            ):
                return None
            self._closed[(source, target)] = weight
            return ("remove_edge", source, target)
        if roll < 0.85:
            if weight is None:
                return None
            cut = round(weight * rng.uniform(0.5, 0.9), 2)
            if not 0.25 <= cut < weight:
                return None
            return ("add_edge", source, target, cut)
        side = self._side
        row, col = divmod(rng.randrange(side * side), side)
        if row + 1 >= side or col + 1 >= side:
            return None
        node = row * side + col
        if rng.random() < 0.5:
            link = (node, node + side + 1)
        else:
            link = (node + 1, node + side)
        if shadow.weight(*link) is not None or link in self._closed:
            return None
        return ("add_edge", link[0], link[1], round(rng.uniform(1.4, 2.8), 2))
