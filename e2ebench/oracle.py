"""Exact answer check for reverse k-ranks results, independent of the program.

``Rank(p, q)`` is one plus the number of nodes strictly closer to ``p``
than ``q`` is (the paper's Definition 1, the definition the program's
naive algorithm implements).  An answer ``[(p, rank), ...]`` for ``(q, k)``
is correct when every listed rank is exact, no node ranks below the
answer's largest rank without being listed, and it lists the ``k``
smallest ranks (or every node that can reach ``q``, when fewer than
``k`` can).  Nodes tied at the largest rank may legally differ between
algorithms.

The program's naive algorithm runs a full Dijkstra search per candidate;
here each search stops as soon as the rank is known to exceed the
answer's largest rank, which is what makes checking a 10,000-node graph
affordable.  Float distances match the program's bit for bit: with
positive weights a node's distance is the minimum of ``d(u) + w`` over
its settled predecessors whatever the relaxation order.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple


def bounded_rank(rows: Dict[int, Dict[int, float]], source, target, bound: float):
    """``Rank(source, target)``, or ``None`` if it exceeds ``bound``."""
    heap = [(0.0, source)]
    best = {source: 0.0}
    done = set()
    settled = 0  # settled nodes other than source (target ends the search)
    below = 0  # settled nodes strictly closer than the current distance
    current = -1.0
    while heap:
        distance, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if distance > current:
            current = distance
            below = settled
            if below + 1 > bound:
                return None
        if node == target:
            return float(below + 1)
        if node != source:
            settled += 1
        for neighbor, weight in rows[node].items():
            candidate = distance + weight
            if candidate < best.get(neighbor, math.inf):
                best[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
    return None


def check_answer(
    rows: Dict[int, Dict[int, float]], query, k: int, pairs: List[Tuple[int, float]]
) -> Optional[str]:
    """``None`` if ``pairs`` is a correct answer for ``(query, k)``, else why not."""
    nodes = [node for node, _ in pairs]
    ranks = [float(rank) for _, rank in pairs]
    if len(pairs) > k:
        return f"{len(pairs)} entries for k={k}"
    if len(set(nodes)) != len(nodes) or query in nodes:
        return "duplicate entries or the query node itself"
    if ranks != sorted(ranks):
        return "entries are not in rank order"
    bound = ranks[-1] if len(pairs) == k else math.inf
    truth = {}
    for node in rows:
        if node != query:
            rank = bounded_rank(rows, node, query, bound)
            if rank is not None:
                truth[node] = rank
    for node, rank in zip(nodes, ranks):
        if truth.get(node) != rank:
            return f"node {node} listed with rank {rank}, exact rank {truth.get(node)}"
    expected = sorted(truth.values())[:k]
    if ranks != expected:
        return f"ranks {ranks} are not the {k} smallest {expected}"
    listed = set(nodes)
    missing = sorted(n for n, r in truth.items() if r < bound and n not in listed)
    if missing:
        return f"nodes {missing[:5]} rank below {bound} but are not listed"
    return None


def equivalent(expected: List[Tuple[int, float]], actual: List[Tuple[int, float]]) -> bool:
    """Same rank values, and the same nodes wherever the rank is below the
    largest (boundary ties may differ)."""
    if [float(r) for _, r in expected] != [float(r) for _, r in actual]:
        return False
    if not expected:
        return True
    boundary = float(expected[-1][1])
    below = lambda pairs: {n: float(r) for n, r in pairs if float(r) < boundary}
    return below(expected) == below(actual)
