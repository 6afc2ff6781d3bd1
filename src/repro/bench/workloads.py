"""Seeded benchmark workload generators.

A *workload* bundles a synthetic graph, a deterministic set of query nodes
and a result size ``k`` — everything :func:`repro.bench.harness.run_workload`
needs to count the four algorithms' work against each other.  Six graph families
mirror the shapes the paper's experiments stress:

* ``path``        — the worst case for rank locality (long chains);
* ``grid``        — planar, many near-ties;
* ``gnp``         — Erdős–Rényi G(n, p), the paper's synthetic default;
* ``powerlaw``    — preferential attachment (hub-heavy degree sequence),
  the regime the hub index is designed for;
* ``bichromatic`` — a G(n, p) with a facility/community split
  (Definitions 3-4), queried from facility nodes;
* ``lattice``     — a road-network-like grid with sparse diagonal
  shortcuts and low weight variance, the shape of the huge-scale tier
  (real road networks load via :func:`dataset_workload`).

Every generator is parametric in size and fully determined by an explicit
``seed`` (stdlib :mod:`random` only), so runs are reproducible and the
recorded ``BENCH_core.json`` trajectory is comparable across commits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.errors import WorkloadError
from repro.graph import BichromaticPartition, Graph
from repro.graph.io import load_dataset

__all__ = [
    "Workload",
    "path_workload",
    "grid_workload",
    "gnp_workload",
    "powerlaw_workload",
    "bichromatic_workload",
    "lattice_workload",
    "dataset_workload",
    "WORKLOAD_FAMILIES",
    "build_suite",
]


@dataclass
class Workload:
    """One benchmark unit: a graph plus the queries to run against it.

    ``naive_sample`` marks a *large-scale* workload: the naive baseline is
    not run, and the other algorithms are spot-validated against the
    exact ranks of that many deterministically sampled candidates instead
    — exhaustive brute force at thousands of nodes takes minutes.
    ``index_params`` optionally bounds the hub-index build
    (``num_hubs`` / ``explore_limit``) so index construction stays
    proportionate at scale.
    """

    name: str
    family: str
    graph: Graph
    queries: List[object]
    k: int
    seed: int
    partition: Optional[BichromaticPartition] = None
    params: Dict[str, object] = field(default_factory=dict)
    naive_sample: Optional[int] = None
    index_params: Dict[str, object] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the workload graph."""
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of edges in the workload graph."""
        return self.graph.num_edges

    def describe(self) -> Dict[str, object]:
        """JSON-ready metadata describing this workload."""
        payload = {
            "name": self.name,
            "family": self.family,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "directed": self.graph.directed,
            "bichromatic": self.partition is not None,
            "num_queries": len(self.queries),
            "k": self.k,
            "seed": self.seed,
            "params": dict(self.params),
        }
        if self.naive_sample is not None:
            payload["naive_sample"] = self.naive_sample
        if self.index_params:
            payload["index_params"] = dict(self.index_params)
        return payload


def _weight(rng: random.Random) -> float:
    """A reproducible edge weight in [1, 10) with two decimals."""
    return round(rng.uniform(1.0, 10.0), 2)


def _sample_queries(
    rng: random.Random, population, count: int, family: str
) -> List[object]:
    """Draw ``count`` distinct query nodes deterministically."""
    ordered = sorted(population, key=repr)
    if not ordered:
        raise WorkloadError(f"{family} workload generated an empty query population")
    count = min(count, len(ordered))
    return rng.sample(ordered, count)


def _check_k(k: int, candidates: int, family: str) -> int:
    if candidates < 1:
        raise WorkloadError(f"{family} workload has no candidate nodes")
    return min(k, candidates)


def path_workload(
    num_nodes: int = 64,
    seed: int = 0,
    num_queries: int = 4,
    k: int = 8,
    naive_sample: Optional[int] = None,
    index_params: Optional[Dict[str, object]] = None,
) -> Workload:
    """A weighted path ``0 - 1 - ... - (n-1)``."""
    if num_nodes < 2:
        raise WorkloadError("path workload needs at least 2 nodes")
    rng = random.Random(seed)
    graph = Graph(name=f"path-{num_nodes}")
    for node in range(num_nodes - 1):
        graph.add_edge(node, node + 1, _weight(rng))
    return Workload(
        name=f"path-n{num_nodes}",
        family="path",
        graph=graph,
        queries=_sample_queries(rng, graph.nodes(), num_queries, "path"),
        k=_check_k(k, num_nodes - 1, "path"),
        seed=seed,
        params={"num_nodes": num_nodes},
        naive_sample=naive_sample,
        index_params=dict(index_params or {}),
    )


def grid_workload(
    side: int = 8,
    seed: int = 0,
    num_queries: int = 4,
    k: int = 8,
    naive_sample: Optional[int] = None,
    index_params: Optional[Dict[str, object]] = None,
) -> Workload:
    """A ``side``×``side`` grid with random weights (many near-ties)."""
    if side < 2:
        raise WorkloadError("grid workload needs side >= 2")
    rng = random.Random(seed)
    graph = Graph(name=f"grid-{side}x{side}")
    for row in range(side):
        for col in range(side):
            node = row * side + col
            if col + 1 < side:
                graph.add_edge(node, node + 1, _weight(rng))
            if row + 1 < side:
                graph.add_edge(node, node + side, _weight(rng))
    return Workload(
        name=f"grid-{side}x{side}",
        family="grid",
        graph=graph,
        queries=_sample_queries(rng, graph.nodes(), num_queries, "grid"),
        k=_check_k(k, side * side - 1, "grid"),
        seed=seed,
        params={"side": side},
        naive_sample=naive_sample,
        index_params=dict(index_params or {}),
    )


def gnp_workload(
    num_nodes: int = 96,
    avg_degree: float = 6.0,
    directed: bool = False,
    seed: int = 0,
    num_queries: int = 4,
    k: int = 8,
    naive_sample: Optional[int] = None,
    index_params: Optional[Dict[str, object]] = None,
) -> Workload:
    """Erdős–Rényi G(n, p) with ``p`` derived from the target average degree."""
    if num_nodes < 2:
        raise WorkloadError("gnp workload needs at least 2 nodes")
    rng = random.Random(seed)
    probability = min(1.0, avg_degree / (num_nodes - 1))
    graph = Graph(directed=directed, name=f"gnp-{num_nodes}")
    graph.add_nodes(range(num_nodes))
    for source in range(num_nodes):
        start = 0 if directed else source + 1
        for target in range(start, num_nodes):
            if source == target:
                continue
            if rng.random() < probability:
                graph.add_edge(source, target, _weight(rng))
    return Workload(
        name=f"gnp-n{num_nodes}{'-directed' if directed else ''}",
        family="gnp",
        graph=graph,
        queries=_sample_queries(rng, graph.nodes(), num_queries, "gnp"),
        k=_check_k(k, num_nodes - 1, "gnp"),
        seed=seed,
        params={
            "num_nodes": num_nodes,
            "avg_degree": avg_degree,
            "directed": directed,
        },
        naive_sample=naive_sample,
        index_params=dict(index_params or {}),
    )


def powerlaw_workload(
    num_nodes: int = 96,
    attach: int = 3,
    seed: int = 0,
    num_queries: int = 4,
    k: int = 8,
    naive_sample: Optional[int] = None,
    index_params: Optional[Dict[str, object]] = None,
) -> Workload:
    """Preferential attachment (Barabási–Albert style): hub-heavy degrees.

    Each new node attaches to ``attach`` existing nodes sampled proportional
    to degree (via the repeated-endpoint trick), producing the skewed degree
    sequence the hub index bets on.
    """
    if num_nodes < 2:
        raise WorkloadError("powerlaw workload needs at least 2 nodes")
    if attach < 1:
        raise WorkloadError("powerlaw workload needs attach >= 1")
    rng = random.Random(seed)
    graph = Graph(name=f"powerlaw-{num_nodes}")
    core = min(attach + 1, num_nodes)
    for source in range(core):
        for target in range(source + 1, core):
            graph.add_edge(source, target, _weight(rng))
    # Endpoint multiset: sampling from it is degree-proportional sampling.
    endpoints: List[int] = []
    for source, target, _ in graph.edges():
        endpoints.extend((source, target))
    for node in range(core, num_nodes):
        chosen = set()
        while len(chosen) < min(attach, node):
            chosen.add(endpoints[rng.randrange(len(endpoints))] if endpoints else rng.randrange(node))
        for neighbor in sorted(chosen):
            graph.add_edge(node, neighbor, _weight(rng))
            endpoints.extend((node, neighbor))
    return Workload(
        name=f"powerlaw-n{num_nodes}",
        family="powerlaw",
        graph=graph,
        queries=_sample_queries(rng, graph.nodes(), num_queries, "powerlaw"),
        k=_check_k(k, num_nodes - 1, "powerlaw"),
        seed=seed,
        params={"num_nodes": num_nodes, "attach": attach},
        naive_sample=naive_sample,
        index_params=dict(index_params or {}),
    )


def lattice_workload(
    side: int = 32,
    diagonal_fraction: float = 0.08,
    seed: int = 0,
    num_queries: int = 2,
    k: int = 16,
    naive_sample: Optional[int] = None,
    index_params: Optional[Dict[str, object]] = None,
) -> Workload:
    """A road-network-like lattice: a grid plus sparse diagonal shortcuts.

    Road networks are near-planar with bounded degree, low edge-weight
    variance (road segments differ by length, not by orders of magnitude)
    and occasional diagonal connectors.  This generator mimics that shape:
    a ``side``×``side`` grid whose edges weigh ``[1, 2)`` plus a
    ``diagonal_fraction`` of cells gaining a slightly costlier diagonal.
    It is the synthetic stand-in of the ``huge`` scale tier — at
    ``side=320`` it reaches the 10\\ :sup:`5`-node regime the
    shared-memory worker transport and the ``"auto"`` hub budget exist
    for — while real SNAP/DIMACS road networks load through
    :func:`dataset_workload`.
    """
    if side < 2:
        raise WorkloadError("lattice workload needs side >= 2")
    if not 0.0 <= diagonal_fraction <= 1.0:
        raise WorkloadError(
            f"diagonal_fraction must be in [0, 1], got {diagonal_fraction!r}"
        )
    rng = random.Random(seed)
    graph = Graph(name=f"lattice-{side}x{side}")
    for row in range(side):
        for col in range(side):
            node = row * side + col
            if col + 1 < side:
                graph.add_edge(node, node + 1, round(rng.uniform(1.0, 2.0), 2))
            if row + 1 < side:
                graph.add_edge(node, node + side, round(rng.uniform(1.0, 2.0), 2))
            if (
                col + 1 < side
                and row + 1 < side
                and rng.random() < diagonal_fraction
            ):
                # A diagonal connector, costlier than either leg alone but
                # cheaper than the two-leg detour (~sqrt(2) of a leg).
                graph.add_edge(
                    node, node + side + 1, round(rng.uniform(1.4, 2.8), 2)
                )
    return Workload(
        name=f"lattice-{side}x{side}",
        family="lattice",
        graph=graph,
        queries=_sample_queries(rng, graph.nodes(), num_queries, "lattice"),
        k=_check_k(k, side * side - 1, "lattice"),
        seed=seed,
        params={"side": side, "diagonal_fraction": diagonal_fraction},
        naive_sample=naive_sample,
        index_params=dict(index_params or {}),
    )


def dataset_workload(
    path: Union[str, Path],
    directed: bool = False,
    num_queries: int = 4,
    k: int = 16,
    seed: int = 0,
    naive_sample: Optional[int] = None,
    index_params: Optional[Dict[str, object]] = None,
) -> Workload:
    """Wrap a real dataset file (edge list, DIMACS ``.gr`` or JSON) as a workload.

    The graph loads through :func:`repro.graph.io.load_dataset` (format
    auto-detected), queries are sampled deterministically from ``seed``,
    and the scale knobs default by graph size: beyond
    ``_SAMPLED_NAIVE_THRESHOLD`` nodes naive is replaced by a 24-candidate
    exact-rank sample and the hub index uses the ``"auto"`` budget — the
    same treatment the synthetic large/huge presets get.  Pass explicit
    ``naive_sample`` / ``index_params`` to override.  This is the
    function behind the bench CLI's ``--dataset`` flag.
    """
    path = Path(path)
    graph = load_dataset(path, directed=directed)
    if graph.num_nodes < 2:
        raise WorkloadError(f"dataset {path} holds fewer than 2 nodes")
    rng = random.Random(seed)
    if naive_sample is None and graph.num_nodes > _SAMPLED_NAIVE_THRESHOLD:
        naive_sample = 24
    if index_params is None and graph.num_nodes > _SAMPLED_NAIVE_THRESHOLD:
        index_params = {"num_hubs": "auto", "explore_limit": "auto"}
    return Workload(
        name=f"dataset-{path.stem}",
        family="dataset",
        graph=graph,
        queries=_sample_queries(rng, graph.nodes(), num_queries, "dataset"),
        k=_check_k(k, graph.num_nodes - 1, "dataset"),
        seed=seed,
        params={
            "path": str(path),
            "directed": directed,
        },
        naive_sample=naive_sample,
        index_params=dict(index_params or {}),
    )


#: Node count above which :func:`dataset_workload` defaults to a sampled
#: exact-rank check instead of naive, and to the ``"auto"`` hub budget.
_SAMPLED_NAIVE_THRESHOLD = 512


def bichromatic_workload(
    num_nodes: int = 72,
    avg_degree: float = 6.0,
    facility_fraction: float = 0.3,
    seed: int = 0,
    num_queries: int = 4,
    k: int = 8,
) -> Workload:
    """A G(n, p) with a facility/community split, queried from facilities."""
    base = gnp_workload(
        num_nodes=num_nodes,
        avg_degree=avg_degree,
        seed=seed,
        num_queries=num_queries,
        k=k,
    )
    rng = random.Random(seed + 1)
    nodes = sorted(base.graph.nodes(), key=repr)
    num_facilities = max(1, min(num_nodes - 1, round(num_nodes * facility_fraction)))
    facilities = rng.sample(nodes, num_facilities)
    partition = BichromaticPartition(base.graph, facilities)
    queries = _sample_queries(rng, partition.facilities, num_queries, "bichromatic")
    return Workload(
        name=f"bichromatic-n{num_nodes}",
        family="bichromatic",
        graph=base.graph,
        queries=queries,
        k=_check_k(k, partition.num_communities, "bichromatic"),
        seed=seed,
        partition=partition,
        params={
            "num_nodes": num_nodes,
            "avg_degree": avg_degree,
            "facility_fraction": facility_fraction,
        },
    )


#: Family name -> generator, for CLI ``--families`` selection.  The
#: ``dataset`` family is deliberately absent: it needs a file path, so it
#: is reachable only through ``--dataset`` / :func:`dataset_workload`.
WORKLOAD_FAMILIES: Dict[str, Callable[..., Workload]] = {
    "path": path_workload,
    "grid": grid_workload,
    "gnp": gnp_workload,
    "powerlaw": powerlaw_workload,
    "bichromatic": bichromatic_workload,
    "lattice": lattice_workload,
}

#: Per-family size parameters for the built-in scales.  The ``large`` scale
#: (n in the thousands) only became affordable once the SDS-tree and
#: refinement loops ran array-specialised on the CSR backend; it skips the
#: naive baseline and checks against ``naive_sample`` candidates' exact
#: ranks because exhaustive brute force at that size runs for minutes, and its
#: hub-index builds resolve the scale-aware ``"auto"`` budget
#: (:func:`repro.core.hubs.hub_budget`) instead of a fixed hub count that
#: cannot serve every size.  The ``huge`` scale (n in the 10\ :sup:`4`–
#: 10\ :sup:`5` range) is lattice-only — the road-network shape is what
#: that tier models, and it is where the shared-memory graph transport
#: pays off: workers *map* the frozen CSR buffers instead of unpickling a
#: private copy.  The bichromatic family has no large preset yet: it needs
#: the facility-count Reverse Rank Dictionary (see ROADMAP) before an
#: indexed row exists to justify one.
_AUTO_INDEX = {"num_hubs": "auto", "explore_limit": "auto"}

_SCALES: Dict[str, Dict[str, Dict[str, object]]] = {
    "smoke": {
        "path": {"num_nodes": 24, "num_queries": 2, "k": 3},
        "grid": {"side": 5, "num_queries": 2, "k": 3},
        "gnp": {"num_nodes": 30, "num_queries": 2, "k": 3},
        "powerlaw": {"num_nodes": 30, "num_queries": 2, "k": 3},
        "bichromatic": {"num_nodes": 28, "num_queries": 2, "k": 3},
        "lattice": {"side": 5, "num_queries": 2, "k": 3},
    },
    "default": {
        "path": {"num_nodes": 96, "num_queries": 4, "k": 8},
        "grid": {"side": 10, "num_queries": 4, "k": 8},
        "gnp": {"num_nodes": 120, "num_queries": 4, "k": 8},
        "powerlaw": {"num_nodes": 120, "num_queries": 4, "k": 8},
        "bichromatic": {"num_nodes": 90, "num_queries": 4, "k": 8},
        "lattice": {"side": 11, "num_queries": 4, "k": 8},
    },
    "large": {
        "path": {
            "num_nodes": 4000,
            "num_queries": 3,
            "k": 16,
            "naive_sample": 48,
            "index_params": dict(_AUTO_INDEX),
        },
        "grid": {
            "side": 45,
            "num_queries": 3,
            "k": 16,
            "naive_sample": 48,
            "index_params": dict(_AUTO_INDEX),
        },
        "gnp": {
            "num_nodes": 2500,
            "avg_degree": 8.0,
            "num_queries": 3,
            "k": 16,
            "naive_sample": 48,
            "index_params": dict(_AUTO_INDEX),
        },
        "powerlaw": {
            "num_nodes": 2500,
            "attach": 4,
            "num_queries": 3,
            "k": 16,
            "naive_sample": 48,
            "index_params": dict(_AUTO_INDEX),
        },
    },
    "huge": {
        "lattice": {
            "side": 320,
            "num_queries": 2,
            "k": 16,
            "naive_sample": 12,
            "index_params": dict(_AUTO_INDEX),
        },
    },
}


def build_suite(
    families: Optional[List[str]] = None,
    scale: str = "default",
    seed: int = 0,
) -> List[Workload]:
    """Build the workloads for ``families`` at ``scale``.

    ``scale`` is one scale name or a comma-separated combination
    (``"default,large"`` benchmarks both sizes in one run).  When
    ``families`` is omitted, each scale contributes every family it
    defines; naming a family explicitly that a requested scale does not
    support raises :class:`~repro.errors.WorkloadError`.
    """
    # dict.fromkeys: dedupe while keeping order — "default,default" must
    # not emit duplicate workload names (report diffs match by name).
    scales = list(
        dict.fromkeys(name.strip() for name in scale.split(",") if name.strip())
    )
    if not scales:
        raise WorkloadError(f"no scale named in {scale!r}")
    for name in scales:
        if name not in _SCALES:
            raise WorkloadError(
                f"unknown scale {name!r}; expected one of {sorted(_SCALES)}"
            )
    explicit = families is not None
    workloads = []
    for scale_name in scales:
        sizes = _SCALES[scale_name]
        selected = list(sizes) if not explicit else list(families)
        for family in selected:
            generator = WORKLOAD_FAMILIES.get(family)
            if generator is None:
                raise WorkloadError(
                    f"unknown workload family {family!r}; "
                    f"expected one of {sorted(WORKLOAD_FAMILIES)}"
                )
            params = sizes.get(family)
            if params is None:
                raise WorkloadError(
                    f"workload family {family!r} has no {scale_name!r} preset"
                )
            workloads.append(generator(seed=seed, **params))
    return workloads
