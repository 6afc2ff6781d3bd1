"""The :class:`ReverseKRanksEngine` facade.

One object that owns a graph (plus an optional bichromatic partition and an
optional hub index) and answers reverse k-ranks queries with any of the four
algorithms, keyed by :class:`~repro.core.config.AlgorithmKind`.  This is the
entry point the benchmark harness and the README quickstart use.

Beyond single-query dispatch the engine provides the batch front door
:meth:`ReverseKRanksEngine.query_many`, which amortises per-query setup
across a whole workload: the graph is compiled once into a
:class:`~repro.graph.csr.CompactGraph` CSR backend (cached across batches
and invalidated by the graph's mutation :attr:`~repro.graph.Graph.version`),
the hub index stays warm and keeps learning across the batch, and repeated
``(query, k, algorithm, bounds)`` requests can be served from an LRU result
cache.

Validation contract
-------------------
The engine validates queries strictly before dispatch (the low-level
algorithm functions keep the paper's permissive "shorter result" semantics):

* ``k`` must be a positive ``int`` — :class:`~repro.errors.InvalidKError`;
* ``k`` must not exceed the number of possible candidates (``|V| - 1``
  monochromatic, ``|V1|`` bichromatic) — :class:`~repro.errors.InvalidKError`;
* the query node must exist — :class:`~repro.errors.InvalidQueryNodeError`;
* bichromatic query nodes must be facilities —
  :class:`~repro.errors.BichromaticError`;
* the hub index must match the engine's graph *and its current mutation
  version* — :class:`~repro.errors.IndexParameterError` (a stale index
  would silently serve wrong ranks).
"""

from __future__ import annotations

import contextlib
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple, Union

from repro.core.bichromatic import (
    bichromatic_naive_reverse_k_ranks,
    bichromatic_reverse_k_ranks,
)
from repro.core.config import AlgorithmKind, BoundSet
from repro.core.hub_index import HubIndex, HubIndexDelta
from repro.core.hubs import HubSelectionStrategy
from repro.core.naive import naive_reverse_k_ranks
from repro.core.sds_dynamic import dynamic_reverse_k_ranks
from repro.core.sds_indexed import indexed_reverse_k_ranks
from repro.core.sds_static import static_reverse_k_ranks
from repro.core.types import QueryResult, QueryStats
from repro.errors import (
    BichromaticError,
    EdgeNotFoundError,
    GraphValidationError,
    IndexParameterError,
    InvalidKError,
    InvalidQueryNodeError,
    NodeNotFoundError,
    ParallelExecutionError,
    WorkerCrashError,
    WorkerTimeoutError,
    check_positive_k,
    is_positive_finite,
    is_positive_int,
)
from repro.graph.csr import CompactGraph
from repro.graph.graph import _check_weight
from repro.graph.overlay import OverlayGraph
from repro.graph.partition import BichromaticPartition
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.traversal.arena import ScratchArena

NodeId = Hashable

__all__ = ["ReverseKRanksEngine", "UpdateReport"]


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`ReverseKRanksEngine.apply_updates` batch did.

    ``touched``/``appended``/``removed`` list the nodes whose adjacency
    effectively changed / that were added / removed, in application
    order.  ``recompacted`` is true when the batch forced a full CSR
    recompile (node removal, no usable base, or the overlay side-table
    crossed the recompaction threshold); otherwise the mutations landed
    as overlay rows (``overlay_rows`` counts the side-table size after
    the batch).  ``index_delta`` carries the hub-index repair delta when
    the engine holds an index; ``pool_synced`` is true when a live
    worker pool absorbed the update in place via the graph broadcast
    instead of being torn down.
    """

    applied: int
    noops: int
    touched: Tuple[NodeId, ...]
    appended: Tuple[NodeId, ...]
    removed: Tuple[NodeId, ...]
    recompacted: bool
    overlay_rows: int
    index_repaired: bool
    index_delta: Optional[HubIndexDelta]
    pool_synced: bool
    graph_version: Optional[int]

_INDEXED_IS_MONOCHROMATIC = (
    "the indexed algorithm is monochromatic-only (the hub index stores "
    "monochromatic ranks)"
)
_NO_INDEX_AVAILABLE = (
    "no hub index available; call build_index() or pass one to the engine "
    "before using the indexed algorithm"
)


def _check_updates(graph, ops: List[tuple]) -> None:
    """Refuse a batch that would fail part-way, before anything mutates.

    Checks each op's shape (and an ``add_edge`` weight, as
    ``Graph.add_edge`` would), then replays the batch against the graph
    without touching it: a ``remove_edge`` / ``remove_node`` of an edge
    or node that is missing by then raises the ``EdgeNotFoundError`` /
    ``NodeNotFoundError`` the graph itself would.  Only the batch's own
    changes are tracked — nodes added or removed, edges added or
    removed, and edges gone with a removed endpoint — so the cost is
    linear in the batch, not the graph.
    """
    directed = graph.directed
    nodes = {}  # node -> present after the ops so far
    edges = {}  # edge key -> present after the ops so far
    dropped = set()  # removed nodes: their edges in ``graph`` are gone
    incident = {}  # node -> keys of the edges the batch added at it

    def key(source, target):
        return (source, target) if directed else frozenset((source, target))

    def has_node(node) -> bool:
        present = nodes.get(node)
        return graph.has_node(node) if present is None else present

    def has_edge(source, target) -> bool:
        if not (has_node(source) and has_node(target)):
            return False
        present = edges.get(key(source, target))
        if present is not None:
            return present
        if source in dropped or target in dropped:
            return False
        return graph.has_edge(source, target)

    for position, op in enumerate(ops):
        if not isinstance(op, tuple) or not op:
            raise GraphValidationError(
                f"update {position} is not an operation tuple: {op!r}"
            )
        tag = op[0]
        if tag == "add_node" and len(op) == 2:
            nodes[op[1]] = True
        elif tag == "add_edge" and len(op) in (3, 4):
            source, target = op[1], op[2]
            if source == target:
                continue  # self loops are no-ops; their weight is exempt
            if len(op) == 4:
                _check_weight(op[3])
            nodes[source] = nodes[target] = True
            edge = key(source, target)
            edges[edge] = True
            incident.setdefault(source, []).append(edge)
            incident.setdefault(target, []).append(edge)
        elif tag == "remove_edge" and len(op) == 3:
            if not has_edge(op[1], op[2]):
                raise EdgeNotFoundError(op[1], op[2])
            edges[key(op[1], op[2])] = False
        elif tag == "remove_node" and len(op) == 2:
            node = op[1]
            if not has_node(node):
                raise NodeNotFoundError(node)
            nodes[node] = False
            dropped.add(node)
            for edge in incident.pop(node, ()):
                edges[edge] = False
        else:
            raise GraphValidationError(
                f"update {position} is malformed: {op!r} (expected "
                "('add_node', n), ('add_edge', u, v[, w]), "
                "('remove_edge', u, v) or ('remove_node', n))"
            )


class ReverseKRanksEngine:
    """Facade dispatching reverse k-ranks queries to the paper's algorithms.

    Parameters
    ----------
    graph:
        The graph to query.
    partition:
        Optional :class:`~repro.graph.partition.BichromaticPartition`; when
        set, every query is bichromatic (and the indexed algorithm is
        unavailable, because the hub index stores monochromatic ranks).
    index:
        Optional prebuilt :class:`~repro.core.hub_index.HubIndex` for the
        indexed algorithm; :meth:`build_index` constructs one in place.

    While a worker pool is live, its workers' hub-index replicas equal
    the master index.  Shard learning and sharded repair rows travel
    between the workers as deltas, and so does the learning of every
    indexed query the engine answers in-process (:meth:`query`, and
    :meth:`query_many` batches that stay sequential): it runs inside a
    learning log whose delta the pool forwards to every worker.  A full
    snapshot ships only when a replica starts or the master index is
    replaced — pool start, a respawned worker, :meth:`build_index` /
    :meth:`adopt_index`, and after a parallel batch that raised.

    An engine answers **one query at a time**: it owns a single
    :class:`~repro.traversal.arena.ScratchArena` (plus CSR/mask caches
    and a learning hub index) that its queries share, so calling
    :meth:`query`/:meth:`query_many` concurrently from multiple threads
    on the *same* engine is not supported — use one engine per thread,
    or ``query_many(workers=N)``, whose parallelism lives in worker
    processes each owning a private engine.
    """

    #: Smallest unique-query batch worth dispatching on the worker pool.
    #: Below this, ``query_many(workers=N)`` falls back to the sequential
    #: path (one query can't amortise the IPC round trip).  Serving
    #: benchmarks lower it to 1 to measure per-request dispatch cost.
    parallel_min_batch: int = 2

    #: Circuit breaker: after this many *batch-level* pool failures (a
    #: crash budget exhausted, a respawn that would not come back, a
    #: batch deadline blown), ``query_many`` stops attempting parallel
    #: execution and serves sequentially until
    #: :meth:`reset_parallel_breaker`.  ``0`` disables the breaker.
    #: Overridable per instance.
    pool_failure_limit: int = 3

    #: Worker deaths each parallel batch absorbs in place (respawn +
    #: re-dispatch, see :meth:`WorkerPool.run_batch`) before the batch
    #: fails.  ``0`` restores fail-fast.  Overridable per instance.
    pool_crash_retries: int = 2

    def __init__(
        self,
        graph,
        partition: Optional[BichromaticPartition] = None,
        index: Optional[HubIndex] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if partition is not None and partition.graph is not graph:
            raise BichromaticError(
                "partition was built for a different graph than the engine's"
            )
        if partition is not None and index is not None:
            raise IndexParameterError(
                "the hub index stores monochromatic ranks and cannot serve "
                "bichromatic queries; use separate engines"
            )
        if index is not None and index.graph is not graph:
            raise IndexParameterError(
                "hub index was built for a different graph than the engine's"
            )
        if index is not None:
            index.ensure_fresh()
        self._graph = graph
        self._partition = partition
        self._index = index
        self._csr: Optional[CompactGraph] = None
        self._csr_version: Optional[int] = None
        # Incremental-maintenance state: the frozen base compilation the
        # current overlay (if any) patches, plus the accumulated mutation
        # side-table keys.  apply_updates() layers effective changes onto
        # the base instead of recompiling; compact_graph() resets all
        # three whenever it performs a full compile.
        self._overlay_base: Optional[CompactGraph] = None
        self._overlay_touched: set = set()
        self._overlay_appended: list = []
        # Bichromatic candidate/counted masks over the compact node order,
        # cached per graph version (building them is O(n) per query
        # otherwise — see CompactSDSTreeSearch).
        self._masks: Optional[tuple] = None
        self._masks_version: Optional[int] = None
        # The persistent repro.parallel worker pool (created lazily by
        # query_many(workers=N)) and the graph version it was built for.
        self._pool = None
        self._pool_version: Optional[int] = None
        # The index object the workers' replicas mirror: set by every
        # snapshot, None when the replicas may differ from the master (a
        # batch raised).  Anything but self._index means the next sync
        # must be a snapshot.
        self._pool_index = None
        # Reusable epoch-stamped scratch memory, threaded through every
        # SDS-tree query this engine answers (worker-process engines get
        # their own).  Graph mutations don't invalidate it: it only grows,
        # and each query claims it with a fresh epoch.
        self._arena = ScratchArena()
        #: Aggregated QueryStats of the most recent query_many batch.
        self.last_batch_stats = None
        #: Flat payload bytes the most recent parallel batch shipped back
        #: through the result queues (codec-reported; 0 for sequential
        #: batches).
        self.last_batch_ipc_bytes = 0
        #: Batch-level pool failures observed (crash budget exhausted,
        #: failed respawn, blown deadline) — the circuit breaker's input;
        #: :meth:`reset_parallel_breaker` zeroes it.  The monotone
        #: ``repro_pool_failures_total`` counter tracks the same events
        #: without ever resetting.
        self.pool_failures = 0
        # --- observability (repro.obs) ---------------------------------
        # Each engine owns a private registry unless handed a shared one
        # (the serve layer passes a single registry so engine, pool,
        # journal and batcher metrics land in one scrape).  The worker
        # pool writes its crash/respawn/timeout/IPC counters into the
        # same registry, which is how pool_health() survives pool
        # rebuilds without fold-in bookkeeping.
        self._registry = registry if registry is not None else MetricsRegistry()
        #: Per-batch span tracer; disabled (and allocation-free) unless
        #: ``tracer.enabled`` is set.  ``engine.last_trace`` reads its
        #: most recent finished tree.
        self.tracer = tracer if tracer is not None else Tracer()
        metrics = self._registry
        self._m_batches = metrics.counter(
            "repro_query_batches_total",
            "query_many batches completed, by execution path.",
            labels=("path",),
        )
        self._m_batches_sequential = self._m_batches.labels(path="sequential")
        self._m_batches_parallel = self._m_batches.labels(path="parallel")
        self._m_batches_fallback = self._m_batches.labels(
            path="sequential_fallback"
        )
        self._m_queries = metrics.counter(
            "repro_queries_total",
            "Queries answered through query_many, by algorithm.",
            labels=("algorithm",),
        )
        self._m_pool_failures = metrics.counter(
            "repro_pool_failures_total",
            "Batch-level pool failures (crash budget exhausted, failed "
            "respawn, blown deadline).",
        )
        self._m_parallel_retries = metrics.counter(
            "repro_parallel_retries_total",
            "Fresh-pool parallel retries after a pool failure.",
        )
        self._m_shard_plans = metrics.counter(
            "repro_shard_plans_total",
            "Shard plans produced for parallel batches.",
        )
        self._m_shard_skew = metrics.histogram(
            "repro_shard_skew_ratio",
            "Largest shard size over the ideal even share, per plan.",
            buckets=(1.0, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0),
        )
        # Declared here (idempotently re-registered by the pool) so
        # pool_health() can read them before any pool exists.
        self._m_worker_crashes = metrics.counter(
            "repro_worker_crashes_total",
            "Worker processes that died mid-batch or failed to respawn.",
        )
        self._m_worker_respawns = metrics.counter(
            "repro_worker_respawns_total",
            "Worker processes respawned in place after a crash or stall.",
        )
        self._m_worker_timeouts = metrics.counter(
            "repro_worker_timeouts_total",
            "Batches that blew their deadline and had stuck workers killed.",
        )
        updates = metrics.counter(
            "repro_graph_updates_total",
            "Graph mutation operations processed by apply_updates, by "
            "outcome (no-ops never invalidate anything).",
            labels=("result",),
        )
        self._m_updates_applied = updates.labels(result="applied")
        self._m_updates_noop = updates.labels(result="noop")
        self._m_recompactions = metrics.counter(
            "repro_csr_recompactions_total",
            "Full CSR compilations (the initial compile and every "
            "recompaction; overlay updates do not count).",
        )
        self._m_index_repairs = metrics.counter(
            "repro_index_repairs_total",
            "Incremental hub-index repairs performed after graph updates "
            "(instead of full index rebuilds).",
        )
        repair_hubs = metrics.counter(
            "repro_index_repair_hubs_total",
            "Hubs a repair re-explored, or kept because their pre-batch "
            "distances proved the update cannot change their row.",
            labels=("outcome",),
        )
        self._m_repair_reexplored = repair_hubs.labels(outcome="reexplored")
        self._m_repair_kept = repair_hubs.labels(outcome="kept")
        repair_settled = metrics.counter(
            "repro_index_repair_settled_total",
            "Row entries repairs took from a re-explored hub's unchanged "
            "prefix (reused), and nodes they settled anew (explored).",
            labels=("outcome",),
        )
        self._m_repair_reused = repair_settled.labels(outcome="reused")
        self._m_repair_explored = repair_settled.labels(outcome="explored")
        self._m_pool_graph_syncs = metrics.counter(
            "repro_pool_graph_syncs_total",
            "In-place worker-pool graph syncs (overlay broadcast instead "
            "of pool teardown).",
        )
        self._m_overlay_rows = metrics.gauge(
            "repro_csr_overlay_rows",
            "Adjacency rows currently overlaid on the frozen CSR base "
            "(0 when the compilation is a plain base).",
        )

    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The engine's graph."""
        return self._graph

    @property
    def partition(self) -> Optional[BichromaticPartition]:
        """The bichromatic partition, if any."""
        return self._partition

    @property
    def index(self) -> Optional[HubIndex]:
        """The hub index, if any."""
        return self._index

    @property
    def is_bichromatic(self) -> bool:
        """Whether queries run in bichromatic mode."""
        return self._partition is not None

    @property
    def arena(self) -> ScratchArena:
        """The engine's reusable :class:`ScratchArena`."""
        return self._arena

    @property
    def registry(self) -> MetricsRegistry:
        """The engine's :class:`~repro.obs.metrics.MetricsRegistry`."""
        return self._registry

    @property
    def last_trace(self) -> Optional[dict]:
        """Span tree of the most recent traced batch (``None`` untraced).

        ``{"trace_id": ..., "root": {...}}`` — see :mod:`repro.obs.trace`
        for the span schema.  Only populated while ``engine.tracer.
        enabled`` is true; worker-side spans arrive stitched under the
        ``engine.pool_dispatch`` span.
        """
        return self.tracer.last_trace

    @property
    def sequential_fallbacks(self) -> int:
        """Parallel-requested batches served sequentially (pool failed or
        breaker open).  Derived from
        ``repro_query_batches_total{path="sequential_fallback"}``."""
        return int(self._m_batches_fallback.value)

    @property
    def parallel_retries(self) -> int:
        """Fresh-pool parallel retries attempted after a pool failure.

        Derived from ``repro_parallel_retries_total``."""
        return int(self._m_parallel_retries.value)

    # ------------------------------------------------------------------
    def compact_graph(self) -> CompactGraph:
        """The CSR compilation of the engine's graph (compiled lazily).

        Every query, hub exploration and rank primitive the engine runs
        traverses this compilation.  It is cached and keyed by the graph's
        mutation :attr:`~repro.graph.Graph.version`.  Mutations applied
        through :meth:`apply_updates` keep the cache warm by layering an
        :class:`~repro.graph.overlay.OverlayGraph` side-table over the
        frozen base; only out-of-band mutations (or a side-table past the
        recompaction threshold) trigger a full recompile here.  An engine
        built around a compilation (a pool worker's) returns it as is.
        """
        if getattr(self._graph, "is_compact", False):
            return self._graph
        version = getattr(self._graph, "version", None)
        if self._csr is None or self._csr_version != version:
            self._csr = CompactGraph.from_graph(self._graph)
            self._csr_version = version
            self._overlay_base = self._csr
            self._overlay_touched = set()
            self._overlay_appended = []
            self._m_recompactions.inc()
            self._m_overlay_rows.set(0)
        return self._csr

    # ------------------------------------------------------------------
    def build_index(
        self,
        num_hubs: Union[int, str, None] = None,
        explore_limit: Union[int, str, None] = None,
        capacity: int = 16,
        strategy: Union[HubSelectionStrategy, str] = HubSelectionStrategy.DEGREE,
        rng: Optional[random.Random] = None,
        workers: int = 1,
        worker_context: Optional[str] = None,
    ) -> HubIndex:
        """Build (and adopt) a hub index for the indexed algorithm.

        The hub explorations run over the engine's cached CSR compilation
        (:meth:`compact_graph`); the index itself stays bound to the
        engine's graph.  ``num_hubs``/``explore_limit`` accept ``"auto"``
        to resolve the scale-aware :func:`~repro.core.hubs.hub_budget`.

        With ``workers > 1`` the hub explorations — the build's entire
        cost — are sharded over the engine's persistent worker pool, the
        way a repair's re-explorations are: :meth:`HubIndex.build`'s
        ``explore`` hook is
        :meth:`~repro.parallel.pool.WorkerPool.explore_hubs`, each worker
        exploring a contiguous hub run on its own shared-memory mapping
        (or pickled copy) of the compilation.  The index, stored
        distances included, is bit-identical to the sequential build.  A
        pool error costs the pool (closed, rebuilt lazily), not the
        build: the master explores the hubs itself.  The pool is reused
        by subsequent ``query_many(workers=N)`` calls with a matching key.
        The build ships no index to the workers (a pool it starts holds
        none); the new index is snapshotted into them on their next
        parallel batch or graph update.
        """
        if self._partition is not None:
            raise IndexParameterError(
                "cannot build a hub index on a bichromatic engine"
            )
        if not is_positive_int(workers):
            raise ParallelExecutionError(
                f"workers must be a positive integer, got {workers!r}"
            )
        explore = None
        if workers > 1:
            # The explorations run on throwaway indexes, so the replicas
            # are not synced first: the index they would get is replaced.
            pool = self._live_pool(workers, worker_context, index=None)

            def explore(hubs, limit):
                try:
                    return pool.explore_hubs(hubs, limit)
                except ParallelExecutionError:
                    self.close_pool()
                    return []  # the master explores every hub itself

        self._index = HubIndex.build(
            self._graph,
            num_hubs=num_hubs,
            explore_limit=explore_limit,
            capacity=capacity,
            strategy=strategy,
            rng=rng,
            backend=self.compact_graph(),
            explore=explore,
        )
        return self._index

    def adopt_index(self, index: HubIndex) -> HubIndex:
        """Adopt a prebuilt (e.g. :meth:`HubIndex.load`-ed) hub index.

        The index must have been built for — or loaded against — this
        engine's graph at its current mutation version.
        """
        if self._partition is not None:
            raise IndexParameterError(_INDEXED_IS_MONOCHROMATIC)
        if index.graph is not self._graph:
            raise IndexParameterError(
                "hub index was built for a different graph than the engine's"
            )
        index.ensure_fresh()
        self._index = index
        return index

    # ------------------------------------------------------------------
    # Incremental graph maintenance
    # ------------------------------------------------------------------
    def apply_updates(self, updates: Iterable[tuple]) -> UpdateReport:
        """Apply a batch of graph mutations, maintaining every derived cache.

        Historically *any* mutation of the engine's graph bumped its
        version and nuked everything keyed by it on the next query: the
        CSR compilation recompiled from scratch, the hub index raised
        stale, and the worker pool was torn down and respawned.  This
        method applies mutations *through* the engine instead, so each
        derived artefact is patched incrementally:

        * the CSR compilation becomes an
          :class:`~repro.graph.overlay.OverlayGraph` — frozen base
          buffers plus full replacement rows for the touched nodes —
          until the side-table holds more than ``max(8, base_nodes //
          4)`` touched or appended nodes, at which point one
          recompaction folds it into a fresh base;
        * the hub index is repaired in place
          (:meth:`~repro.core.hub_index.HubIndex.repair`): only sources
          whose settled set holds a touched endpoint are dropped, and of
          those hubs only the ones whose pre-batch distances cannot
          prove the batch's net edge changes harmless are re-explored;
          the resulting :class:`~repro.core.hub_index.HubIndexDelta` is
          returned on the report for journaling;
        * a live worker pool receives the batch's overlay rows over its
          broadcast channel — each worker builds its next overlay from
          its current one over the base it already holds, no teardown,
          no process churn.  While the workers' index replicas mirror
          the master index, the same round trip shards the repair: each
          worker applies the master's drops and trims and re-explores a
          contiguous chunk of the affected hubs, and the master installs
          the returned rows and tails in hub order (bit-identical to
          repairing alone).  Otherwise (the index was replaced, or a
          batch raised) the master repairs alone and ships a snapshot.
          A worker that crashes or raises mid-sync costs the pool
          (dropped, rebuilt lazily; ``pool_synced=False``), never the
          update.

        Supported operations (tuples, applied in order)::

            ("add_node", node)
            ("add_edge", source, target, weight)   # weight optional, 1.0
            ("remove_edge", source, target)
            ("remove_node", node)

        No-ops — adding an existing node, re-adding an edge with an
        equal-or-higher weight (parallel edges collapse to the minimum) —
        are detected via the graph's version counter and never touch any
        cache.  Node removals renumber the CSR node table and therefore
        force recompaction (and a pool rebuild); everything else stays
        incremental.  Bichromatic engines are rejected: partition
        membership of new nodes is not derivable here.

        Results after an incremental batch are **bit-identical** to
        recompiling and rebuilding from scratch — overlay rows replicate
        a recompile's enumeration order, and repaired hub entries match a
        rebuild's (the differential fuzz suite pins both, ranks and
        ``QueryStats`` counters).

        The batch is all-or-nothing: every operation is checked against
        the graph as the batch's own earlier operations leave it before
        anything is applied, so a batch that raises changes nothing —
        not the graph, its version, the compilation, the index or the
        pool.

        Raises
        ------
        GraphValidationError
            On a malformed operation tuple, or when the engine's graph is
            a compiled ``CompactGraph`` (immutable).
        InvalidWeightError
            On an ``add_edge`` weight ``Graph.add_edge`` would reject
            (negative, NaN, infinite or not a number).
        BichromaticError
            On a bichromatic engine.
        EdgeNotFoundError / NodeNotFoundError
            On a ``remove_edge`` / ``remove_node`` of an edge or node
            that is missing by then (never there, or removed by an
            earlier operation of the batch, an edge also with either
            endpoint).
        """
        if self._partition is not None:
            raise BichromaticError(
                "apply_updates is monochromatic-only: mutating a "
                "partitioned graph would need partition membership for "
                "new nodes; rebuild the partition and engine instead"
            )
        graph = self._graph
        if getattr(graph, "is_compact", False):
            raise GraphValidationError(
                "cannot apply updates: the engine's graph is a compiled "
                "CompactGraph (immutable); updates go through the "
                "coordinator engine that owns the mutable Graph"
            )
        ops = list(updates)
        _check_updates(graph, ops)

        pre_version = getattr(graph, "version", None)
        applied = 0
        noops = 0
        touched_order: List[NodeId] = []
        touched = set()
        appended: List[NodeId] = []
        removed: List[NodeId] = []
        zero_weight = False
        # Edge -> its weight before the batch (None: absent).
        weights_before: Dict[Tuple[NodeId, NodeId], Optional[float]] = {}

        def touch(node: NodeId) -> None:
            if node not in touched:
                touched.add(node)
                touched_order.append(node)

        def weight_of(source: NodeId, target: NodeId) -> Optional[float]:
            if graph.has_edge(source, target):
                return graph.weight(source, target)
            return None

        def note_edge(source: NodeId, target: NodeId) -> None:
            if graph.directed or (target, source) not in weights_before:
                weights_before.setdefault(
                    (source, target), weight_of(source, target)
                )

        for op in ops:
            tag = op[0]
            if tag == "add_node":
                node = op[1]
                if graph.has_node(node):
                    noops += 1
                    continue
                graph.add_node(node)
                appended.append(node)
                touch(node)
                applied += 1
            elif tag == "add_edge":
                source, target = op[1], op[2]
                weight = op[3] if len(op) == 4 else 1.0
                if source == target:
                    noops += 1  # self loops never change a rank
                    continue
                new_source = not graph.has_node(source)
                new_target = not graph.has_node(target)
                note_edge(source, target)
                before = graph.version
                graph.add_edge(source, target, weight)
                if graph.version == before:
                    noops += 1
                    continue
                applied += 1
                touch(source)
                touch(target)
                if new_source:
                    appended.append(source)
                if new_target:
                    appended.append(target)
                if graph.weight(source, target) == 0.0:
                    zero_weight = True
            else:
                # remove_edge / remove_node: capture zero-weight
                # involvement *before* the removal (see
                # HubIndex.repair's soundness note).
                if tag == "remove_edge":
                    source, target = op[1], op[2]
                    if graph.weight(source, target) == 0.0:
                        zero_weight = True
                    note_edge(source, target)
                    graph.remove_edge(source, target)
                    applied += 1
                    touch(source)
                    touch(target)
                else:  # remove_node
                    node = op[1]
                    neighbors = set(graph.neighbors(node))
                    neighbors.update(graph.in_neighbors(node))
                    if any(
                        w == 0.0 for _, w in graph.neighbor_items(node)
                    ) or any(
                        w == 0.0 for _, w in graph.in_neighbor_items(node)
                    ):
                        zero_weight = True
                    graph.remove_node(node)
                    applied += 1
                    removed.append(node)
                    touch(node)
                    for neighbor in neighbors:
                        touch(neighbor)

        post_version = getattr(graph, "version", None)
        if noops:
            self._m_updates_noop.inc(noops)
        if applied == 0:
            # Nothing effective: the version counter did not move, so no
            # cache — CSR, masks, index, pool — was invalidated.
            return UpdateReport(
                applied=0,
                noops=noops,
                touched=(),
                appended=(),
                removed=(),
                recompacted=False,
                overlay_rows=(
                    self._csr.overlay_rows
                    if self._csr is not None
                    and getattr(self._csr, "is_overlay", False)
                    else 0
                ),
                index_repaired=False,
                index_delta=None,
                pool_synced=False,
                graph_version=post_version,
            )
        self._m_updates_applied.inc(applied)

        # ---- CSR: overlay or recompact --------------------------------
        base = self._overlay_base
        removed_set = set(removed)
        base_usable = (
            not removed
            and base is not None
            and self._csr is not None
            and self._csr_version == pre_version
        )
        if base_usable:
            new_touched = set(self._overlay_touched)
            new_touched.update(touched)
            new_appended = self._overlay_appended + appended
            if len(new_touched | set(new_appended)) > max(
                8, base.num_nodes // 4
            ):
                base_usable = False
        if base_usable:
            # Rows this batch did not touch are the previous overlay's.
            # Without one the compilation is the base, at ``pre_version``.
            previous = self._csr if self._csr.is_overlay else None
            csr = OverlayGraph.from_base(
                graph, base, touched, new_appended, previous=previous
            )
            self._csr = csr
            self._csr_version = post_version
            self._overlay_touched = new_touched
            self._overlay_appended = new_appended
            self._m_overlay_rows.set(csr.overlay_rows)
            recompacted = False
        else:
            self._csr = None
            self._overlay_base = None
            self._overlay_touched = set()
            self._overlay_appended = []
            csr = self.compact_graph()  # full compile; resets overlay state
            recompacted = True

        # ---- Hub index repair + worker pool sync ----------------------
        pool = self._pool
        if pool is not None and (pool.is_closed or recompacted):
            # Node removal / threshold crossing renumbers the CSR node
            # table the workers hold; the next parallel batch rebuilds.
            self.close_pool()
            pool = None
        explore = None
        synced = []
        if (
            pool is not None
            and self._index is not None
            and self._pool_index is self._index
        ):
            # The workers' replicas equal the master, so the graph
            # broadcast doubles as the repair's exploration round trip:
            # each worker re-explores a chunk of the hubs.
            def explore_on_pool(drops, hubs, limit, prefixes):
                try:
                    rows = pool.update_graph(
                        csr, repair=(drops, hubs, limit, prefixes)
                    )
                except ParallelExecutionError:
                    return []  # the master explores every hub itself
                synced.append(True)
                return rows

            explore = explore_on_pool
        index_delta = None
        if self._index is not None:
            changes = []
            for (source, target), weight in weights_before.items():
                after = weight_of(source, target)
                if after != weight:
                    changes.append((source, target, weight, after))
            index_delta = self._index.repair(
                touched_order,
                search_graph=csr,
                conservative=zero_weight,
                removed_nodes=removed_set,
                explore=explore,
                changes=changes,
            )
            self._m_index_repairs.inc()
            reexplored, kept = self._index.last_repair
            self._m_repair_reexplored.inc(len(reexplored))
            self._m_repair_kept.inc(len(kept))
            reused, explored = self._index.last_repair_settles
            self._m_repair_reused.inc(reused)
            self._m_repair_explored.inc(explored)
        if pool is not None and explore is None:
            # Snapshot sync: the repaired master index (if any) replaces
            # the workers' replicas.
            try:
                pool.update_graph(csr, index=self._index)
            except ParallelExecutionError:
                pass
            else:
                synced.append(True)
                self._pool_index = self._index
        pool_synced = bool(synced)
        if pool_synced:
            self._pool_version = post_version
            self._m_pool_graph_syncs.inc()
        elif pool is not None:
            # A worker crashed or raised mid-sync (WorkerCrashError is a
            # ParallelExecutionError): degrade exactly like a mid-batch
            # crash — drop the pool; the next parallel batch builds a
            # fresh one over the current compilation.
            self.close_pool()

        return UpdateReport(
            applied=applied,
            noops=noops,
            touched=tuple(touched_order),
            appended=tuple(appended),
            removed=tuple(removed),
            recompacted=recompacted,
            overlay_rows=(
                csr.overlay_rows if getattr(csr, "is_overlay", False) else 0
            ),
            index_repaired=index_delta is not None,
            index_delta=index_delta,
            pool_synced=pool_synced,
            graph_version=post_version,
        )

    # ------------------------------------------------------------------
    def query(
        self,
        query: NodeId,
        k: int,
        algorithm: Union[AlgorithmKind, str] = AlgorithmKind.DYNAMIC,
        bounds: Optional[BoundSet] = None,
    ) -> QueryResult:
        """Answer one reverse k-ranks query.

        Parameters
        ----------
        query:
            The query node (a facility node in bichromatic mode).
        k:
            Requested result size; must be a positive integer no larger than
            the number of candidate nodes (see the module docstring).
        algorithm:
            An :class:`AlgorithmKind` or its string value.
        bounds:
            Theorem-2 bound components for the dynamic/indexed algorithms.
        """
        kind = AlgorithmKind(algorithm)
        self._validate_query(query, k)
        with self._forwarding_learning(kind):
            return self._dispatch(query, k, kind, bounds, self.compact_graph())

    def query_many(
        self,
        queries: Iterable[NodeId],
        k: int,
        algorithm: Union[AlgorithmKind, str] = AlgorithmKind.DYNAMIC,
        bounds: Optional[BoundSet] = None,
        cache_size: Optional[int] = None,
        workers: int = 1,
        worker_context: Optional[str] = None,
        batch_timeout: Optional[float] = None,
    ) -> List[QueryResult]:
        """Answer a batch of reverse k-ranks queries, amortising setup work.

        Three batch-level optimisations apply:

        * **one CSR compile** — every algorithm (naive, static, dynamic,
          indexed, and the bichromatic variants) runs over the cached
          :class:`~repro.graph.csr.CompactGraph` compilation
          (:meth:`compact_graph`, compiled at most once per graph
          version), like :meth:`query` does;
        * **warm hub-index reuse** — indexed queries share the engine's hub
          index, which keeps learning ranks across the batch (Algorithm 4),
          so later queries get progressively cheaper;
        * **optional LRU result cache** — with ``cache_size`` set, repeated
          ``(query, k, algorithm, bounds)`` requests within the batch are
          answered from cache (useful for skewed query workloads).

        Parameters
        ----------
        queries:
            Query nodes; evaluated in order.  Every query is validated up
            front, so a bad query fails the batch before any work is done.
        k, algorithm, bounds:
            As in :meth:`query`, shared by the whole batch.
        cache_size:
            Capacity of the per-batch LRU result cache; ``None``/``0``
            disables caching.  Cache hits return the same
            :class:`~repro.core.types.QueryResult` object.  In parallel
            mode a truthy ``cache_size`` deduplicates repeated queries
            parent-side before shard planning (only unique queries are
            dispatched; the capacity bound is irrelevant there because
            the whole batch's unique set is kept), and duplicate
            positions share one result object just like sequential
            cache hits.  ``last_batch_stats`` then aggregates over the
            *dispatched* unique queries, not the duplicated positions.
        workers:
            With ``workers > 1``, the batch is sharded across that many
            persistent worker processes (see :mod:`repro.parallel`): each
            worker maps the CSR compilation from shared memory (falling
            back to a pickled private copy where shared memory is
            unavailable; holds a snapshot of the hub index, when one is
            set), results come back
            in input order, and everything indexed queries *learn* in the
            workers is merged back into this engine's master index
            (:meth:`~repro.core.hub_index.HubIndex.merge_delta`).  The
            pool persists across batches and is invalidated by graph
            mutations; see :meth:`prepare_parallel` / :meth:`close_pool`.
            Single-query batches fall back to sequential execution
            (nothing to shard).  The batch is sharded round-robin and
            every result carries its full
            :class:`~repro.core.types.QueryStats`, exactly as in
            sequential mode.

            When the pool fails a batch even after its in-place healing
            (crash budget exhausted, a replacement worker that would not
            start, a blown ``batch_timeout``), the engine prunes the dead
            pool, retries the batch once on a fresh pool, and if that
            fails too, falls back to the sequential path (bit-identical
            results, just slower).  A circuit breaker counts these
            batch-level pool failures; past :attr:`pool_failure_limit`
            the engine stops attempting parallel execution entirely (see
            :attr:`parallel_degraded` / :meth:`reset_parallel_breaker`).
        worker_context:
            Parallel mode only: multiprocessing start method (``"fork"``,
            ``"spawn"``, ``"forkserver"``, or ``None`` for the platform
            default).
        batch_timeout:
            Parallel mode only: wall-clock seconds one pool batch may
            take before the stuck workers are killed and the batch is
            treated as a pool failure (above).  A finite number above
            zero, or ``None`` to wait indefinitely (crashes still
            surface via liveness polling).

        Returns
        -------
        list of QueryResult
            One result per query, in input order.
        """
        batch = list(queries)
        kind = self.validate_batch(batch, k, algorithm)

        if not is_positive_int(workers):
            raise ParallelExecutionError(
                f"workers must be a positive integer, got {workers!r}"
            )
        # Checked before any pool work: a zero or negative deadline would
        # fail every attempt (and count towards the circuit breaker), and
        # nan would silently mean no deadline at all.
        if batch_timeout is not None and not is_positive_finite(batch_timeout):
            raise ParallelExecutionError(
                f"batch_timeout must be a finite number > 0 (or None), "
                f"got {batch_timeout!r}"
            )
        # Reset the per-batch telemetry *before* dispatch: a parallel
        # batch that degrades to the sequential fallback (or escapes with
        # a pool error) must not leave the previous batch's ipc_bytes /
        # stats visible as if they described this batch.
        self.last_batch_stats = None
        self.last_batch_ipc_bytes = 0
        tracer = self.tracer
        # Worker processes run query_many inside their own "worker.shard"
        # root; nest under it instead of clobbering the open trace.
        root = (
            tracer.span(
                "engine.query_many",
                algorithm=kind.value, queries=len(batch), workers=workers,
            )
            if tracer.active
            else tracer.trace(
                "engine.query_many",
                algorithm=kind.value, queries=len(batch), workers=workers,
            )
        )
        with root:
            path = "sequential"
            if workers > 1:
                # The result cache, parallel-side: repeated queries are
                # deduplicated *before* shard planning (k/algorithm/bounds
                # are batch constants, so the cache key degenerates to the
                # query node) and the unique results fanned back out
                # afterwards — duplicate positions share one QueryResult
                # object, exactly like a sequential cache hit.  Previously
                # the parallel branch silently ignored cache_size and
                # dispatched every duplicate.
                dispatch = batch
                if cache_size and cache_size > 0:
                    dispatch = list(dict.fromkeys(batch))
                if len(dispatch) >= max(1, self.parallel_min_batch):
                    # One attempt plus one retry on a fresh pool, unless
                    # the circuit breaker is (or becomes) open.
                    unique = None
                    for attempt in range(2):
                        if self.parallel_degraded:
                            break
                        if attempt:
                            self._m_parallel_retries.inc()
                        try:
                            unique = self._query_many_parallel(
                                dispatch, k, kind, bounds, workers,
                                worker_context, batch_timeout,
                            )
                            break
                        except (WorkerCrashError, WorkerTimeoutError):
                            # _query_many_parallel already pruned the pool.
                            self.pool_failures += 1
                            self._m_pool_failures.inc()
                    if unique is not None:
                        self._m_batches_parallel.inc()
                        self._m_queries.labels(algorithm=kind.value).inc(
                            len(batch)
                        )
                        if len(dispatch) == len(batch):
                            return unique
                        by_query = dict(zip(dispatch, unique))
                        return [by_query[query] for query in batch]
                    # Graceful degradation: the pool is gone (or the
                    # breaker is open) — serve the batch on the sequential
                    # path, which is bit-identical, just unsharded.
                    self._m_batches_fallback.inc()
                    path = "sequential_fallback"
                # Batch too small to amortise dispatch (and an empty batch
                # has nothing to shard) — fall through to the sequential
                # path, whose LRU serves the duplicates.

            results = self._query_many_sequential(
                batch, k, kind, bounds, cache_size
            )
            if path == "sequential":
                self._m_batches_sequential.inc()
            self._m_queries.labels(algorithm=kind.value).inc(len(batch))
            return results

    def _query_many_sequential(
        self,
        batch: List[NodeId],
        k: int,
        kind: AlgorithmKind,
        bounds: Optional[BoundSet],
        cache_size: Optional[int],
    ) -> List[QueryResult]:
        """The in-process batch path (also the parallel fallback).

        Factored out of :meth:`query_many` so graceful degradation runs
        *exactly* this code — the fallback cannot drift from what
        ``workers=1`` would have answered.  ``last_batch_stats`` sums the
        queries that ran; a cache hit ran nothing.
        """
        backend = self.compact_graph()

        cache: Optional[OrderedDict] = (
            OrderedDict() if cache_size and cache_size > 0 else None
        )
        results: List[QueryResult] = []
        aggregated = QueryStats()
        with self.tracer.span(
            "engine.sequential", queries=len(batch)
        ) as span, self._forwarding_learning(kind):
            cache_hits = 0
            for query in batch:
                key = (query, k, kind, bounds)
                if cache is not None and key in cache:
                    cache.move_to_end(key)
                    results.append(cache[key])
                    cache_hits += 1
                    continue
                result = self._dispatch(query, k, kind, bounds, backend)
                aggregated.merge(result.stats)
                if cache is not None:
                    cache[key] = result
                    if len(cache) > cache_size:
                        cache.popitem(last=False)
                results.append(result)
            if cache is not None:
                span.set(cache_hits=cache_hits)
        self.last_batch_stats = aggregated
        self.last_batch_ipc_bytes = 0
        return results

    @contextlib.contextmanager
    def _forwarding_learning(self, kind: AlgorithmKind):
        """Forward what in-process ``kind`` queries learn to the pool's replicas.

        While a live pool's replicas mirror the master index, the
        enclosed indexed queries run inside a learning log (nested in
        any log the caller keeps, such as the query server's journal
        log) whose delta the pool queues for every worker.  Anything
        else runs as is.
        """
        pool = self._pool
        index = self._index
        if (
            kind is not AlgorithmKind.INDEXED
            or pool is None
            or pool.is_closed
            or index is None
            or self._pool_index is not index
        ):
            yield
            return
        index.start_learning_log()
        try:
            yield
        finally:
            delta = index.pop_learning_log()
            if delta:
                pool.forward(delta)

    def validate_batch(
        self,
        queries: Iterable[NodeId],
        k: int,
        algorithm: Union[AlgorithmKind, str] = AlgorithmKind.DYNAMIC,
    ) -> AlgorithmKind:
        """Validate a batch exactly as :meth:`query_many` would, without running it.

        Returns the resolved :class:`AlgorithmKind`.  The serve layer
        calls this at admission time so one client's bad request fails
        *that* request instead of poisoning the coalesced batch it would
        have been folded into.
        """
        kind = AlgorithmKind(algorithm)
        check_positive_k(k)
        for query in queries:
            self._validate_query_node(query)
        # After the node checks so absent-node errors take precedence, but
        # unconditionally so an empty batch still validates k.
        self._validate_k_limit(k)
        if kind is AlgorithmKind.INDEXED:
            self._require_monochromatic_index()
            self._index.ensure_compatible(self._graph, k)
        return kind

    def export_state(self) -> Optional[dict]:
        """Picklable snapshot of the engine's learned hub-index state.

        Delegates to :meth:`HubIndex.export_state`; ``None`` when the
        engine holds no index.  Two engines whose pickled exports are
        equal answer indexed queries with identical work — the equality
        the journal-replay tests and the restart smoke job assert.
        """
        return self._index.export_state() if self._index is not None else None

    # ------------------------------------------------------------------
    # Parallel execution (repro.parallel)
    # ------------------------------------------------------------------
    def prepare_parallel(
        self,
        workers: int,
        worker_context: Optional[str] = None,
    ):
        """Start (or refresh) the worker pool outside any timed region.

        :meth:`query_many` creates the pool lazily, which folds process
        startup — spawn can take seconds — into the first batch.  Callers
        that time batches call this first.  If the engine holds a hub
        index, its current state is snapshotted into the workers.
        Returns the pool.
        """
        return self._ensure_pool(workers, worker_context)

    def close_pool(self) -> None:
        """Shut down the worker pool, if one is running.  Idempotent.

        Pools write their crash/respawn/timeout counters into the
        engine's shared registry at event time, so :meth:`pool_health`
        keeps the full history across pool rebuilds with no fold-in.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._pool_index = None
            self._pool_version = None

    @property
    def parallel_degraded(self) -> bool:
        """Whether the circuit breaker has given up on parallel execution.

        Opens once :attr:`pool_failures` reaches
        :attr:`pool_failure_limit` (a limit of ``0`` disables the
        breaker).  While open, ``query_many(workers=N)`` serves every
        batch on the bit-identical sequential path;
        :meth:`reset_parallel_breaker` closes it again.
        """
        limit = self.pool_failure_limit
        return limit > 0 and self.pool_failures >= limit

    def reset_parallel_breaker(self) -> None:
        """Close the circuit breaker: parallel execution is attempted again."""
        self.pool_failures = 0

    def pool_health(self) -> dict:
        """Pool liveness + self-healing counters (the ``health`` op's core).

        Worker-level counters (crashes, respawns, timeouts) are lifetime
        totals read from the engine's metrics registry, which every pool
        this engine creates writes into at event time — the payload is
        byte-compatible with the pre-registry fold-in bookkeeping.
        """
        pool = self._pool
        live = pool is not None and not pool.is_closed
        pool_health = pool.health() if live else None
        health = {
            "pool_active": live,
            "pool_workers": pool.num_workers if live else 0,
            "pool_alive": pool_health["alive"] if live else 0,
            "worker_crashes": int(self._m_worker_crashes.value),
            "worker_respawns": int(self._m_worker_respawns.value),
            "worker_timeouts": int(self._m_worker_timeouts.value),
            "pool_failures": self.pool_failures,
            "pool_failure_limit": self.pool_failure_limit,
            "parallel_retries": self.parallel_retries,
            "sequential_fallbacks": self.sequential_fallbacks,
            "degraded": self.parallel_degraded,
        }
        if live:
            health["worker_generations"] = pool_health["generations"]
        return health

    def __enter__(self) -> "ReverseKRanksEngine":
        return self

    def __exit__(self, exc_type, exc_value, tb) -> None:
        self.close_pool()

    def _ensure_pool(self, workers: int, worker_context: Optional[str]):
        """The cached worker pool, rebuilt or re-synced when its key drifted.

        A replaced master index never rebuilds the pool (see
        :meth:`_live_pool`) — the workers are *re-synced* in place with a
        snapshot via :meth:`~repro.parallel.pool.WorkerPool.update_index`
        whenever their replicas do not mirror the master index: it was
        replaced (a new object may carry a different capacity, which
        worker-side k validation must agree with), or a batch raised.
        """
        pool = self._live_pool(workers, worker_context, self._index)
        if self._index is not None and self._pool_index is not self._index:
            # Until the snapshot lands the replicas are unknown.
            self._pool_index = None
            try:
                pool.update_index(self._index)
            except WorkerCrashError:
                self.close_pool()
                raise
            self._pool_index = self._index
        return pool

    def _live_pool(self, workers: int, worker_context: Optional[str], index):
        """The cached worker pool, rebuilt when its key drifted.

        The *rebuild* key is (worker count, start method, graph mutation
        version): a mutated graph means the workers hold a wrong
        compilation, and process count / start method cannot change in
        place.  The start method is compared as ``worker_context``
        resolves (``None`` is the platform default).  A new pool starts
        with a snapshot of ``index`` (or none); the replicas of a pool
        kept are left as they are.
        """
        from repro.parallel.pool import WorkerPool, start_context

        version = getattr(self._graph, "version", None)
        if self._pool is not None:
            stale = (
                self._pool.is_closed
                or self._pool.num_workers != workers
                or self._pool_version != version
                or self._pool.start_method
                != start_context(worker_context).get_start_method()
                # The engine can gain or swap an index in place (the
                # workers adopt the new snapshot), but not un-set one.
                or (self._index is None and self._pool_index is not None)
            )
            if stale:
                self.close_pool()
        if self._pool is None:
            facilities = (
                self._partition.facilities if self._partition is not None else None
            )
            # Overlays refuse pickling and shared memory by design: the
            # pool is always built around the frozen *base* compilation,
            # and an active side-table rides along as a broadcast-style
            # init payload the workers apply after attaching the base.
            compact = self.compact_graph()
            if getattr(compact, "is_overlay", False):
                init_graph = compact.base
                graph_update = compact.overlay_state()
            else:
                init_graph = compact
                graph_update = None
            self._pool = WorkerPool(
                init_graph,
                workers=workers,
                index=index,
                facilities=facilities,
                context=worker_context,
                crash_retries=self.pool_crash_retries,
                registry=self._registry,
                graph_update=graph_update,
            )
            self._pool_version = version
            self._pool_index = index
        return self._pool

    def _query_many_parallel(
        self,
        batch: List[NodeId],
        k: int,
        kind: AlgorithmKind,
        bounds: Optional[BoundSet],
        workers: int,
        worker_context: Optional[str],
        batch_timeout: Optional[float] = None,
    ) -> List[QueryResult]:
        from repro.parallel import ShardPlanner

        tracer = self.tracer
        with tracer.span("engine.pool_ensure", workers=workers):
            pool = self._ensure_pool(workers, worker_context)
        with tracer.span("engine.plan") as plan_span:
            plan = ShardPlanner(pool.num_workers).plan(batch)
            skew = plan.skew()
            plan_span.set(skew=skew)
        self._m_shard_plans.inc()
        self._m_shard_skew.observe(skew)
        try:
            with tracer.span(
                "engine.pool_dispatch", shards=len(plan.non_empty())
            ) as dispatch_span:
                outcome = pool.run_batch(
                    plan, k, kind, bounds=bounds,
                    timeout=batch_timeout,
                    trace_id=tracer.trace_id if tracer.enabled else None,
                )
                # Worker-side span trees (durations + worker-local
                # offsets) stitch under this dispatch span — one tree
                # per batch, one trace id across the IPC boundary.
                tracer.attach(outcome.worker_traces)
                dispatch_span.set(ipc_bytes=outcome.ipc_bytes)
        except (WorkerCrashError, WorkerTimeoutError):
            # The pool exhausted its in-place healing (or blew the batch
            # deadline); drop it so a caller's retry gets a fresh pool
            # instead of re-dispatching shards to the corpse forever.
            self.close_pool()
            raise
        except ParallelExecutionError:
            # A shard raised: workers that finished may have learned
            # ranks the master never merges, so the next sync must be a
            # snapshot.
            self._pool_index = None
            raise
        if kind is AlgorithmKind.INDEXED and self._index is not None:
            # Deltas arrive in shard order (see merge_shard_outputs), so
            # the last-writer-wins merge is deterministic run to run.  The
            # pool already queued each for the workers that lack it.
            with tracer.span("engine.merge_deltas", deltas=len(outcome.deltas)):
                for delta in outcome.deltas:
                    self._index.merge_delta(delta)
        self.last_batch_stats = outcome.stats
        self.last_batch_ipc_bytes = outcome.ipc_bytes
        return outcome.results

    # ------------------------------------------------------------------
    # Validation and dispatch internals
    # ------------------------------------------------------------------
    def _validate_query(self, query: NodeId, k: int) -> None:
        check_positive_k(k)
        self._validate_query_node(query)
        self._validate_k_limit(k)

    def _validate_k_limit(self, k: int) -> None:
        if self._partition is not None:
            limit = self._partition.num_communities
            population = "community (V1) candidate nodes"
        else:
            limit = self._graph.num_nodes - 1
            population = "candidate nodes (|V| - 1)"
        if k > limit:
            raise InvalidKError(
                k,
                reason=(
                    f"k={k} exceeds the {limit} {population} this engine "
                    "could ever return"
                ),
            )

    def _validate_query_node(self, query: NodeId) -> None:
        if not self._graph.has_node(query):
            raise InvalidQueryNodeError(query)
        if self._partition is not None:
            self._partition.validate_query_node(query)

    def _require_monochromatic_index(self) -> None:
        """Preconditions shared by every indexed-algorithm entry point."""
        if self._partition is not None:
            raise IndexParameterError(_INDEXED_IS_MONOCHROMATIC)
        if self._index is None:
            raise IndexParameterError(_NO_INDEX_AVAILABLE)

    def _dispatch(
        self,
        query: NodeId,
        k: int,
        kind: AlgorithmKind,
        bounds: Optional[BoundSet],
        backend: CompactGraph,
    ) -> QueryResult:
        """Run one query over ``backend``, the engine's :meth:`compact_graph`."""
        if self._partition is not None:
            return self._bichromatic_query(query, k, kind, bounds, backend)

        if kind is AlgorithmKind.NAIVE:
            return naive_reverse_k_ranks(backend, query, k)
        if kind is AlgorithmKind.STATIC:
            return static_reverse_k_ranks(backend, query, k, arena=self._arena)
        if kind is AlgorithmKind.DYNAMIC:
            return dynamic_reverse_k_ranks(
                backend, query, k, bounds=bounds, arena=self._arena
            )
        self._require_monochromatic_index()
        # The hub index stores node-id ranks for the graph it was built on;
        # indexed queries keep that graph as the source of truth and hand
        # the CSR compilation along as the traversal backend.
        return indexed_reverse_k_ranks(
            self._graph, query, k, index=self._index, bounds=bounds,
            backend=backend, arena=self._arena,
        )

    def _partition_masks(self, backend: CompactGraph):
        """Candidate/counted masks over ``backend``'s node order.

        Evaluating the partition predicates over every node costs O(n)
        per query; the engine pays it once per graph version instead
        (keyed like the CSR compilation cache).
        """
        version = getattr(backend, "source_version", None)
        if self._masks is None or self._masks_version != version:
            partition = self._partition
            nodes = backend.node_ids
            self._masks = (
                bytearray(1 if partition.is_candidate(node) else 0 for node in nodes),
                bytearray(1 if partition.is_counted(node) else 0 for node in nodes),
            )
            self._masks_version = version
        return self._masks

    def _bichromatic_query(
        self,
        query: NodeId,
        k: int,
        kind: AlgorithmKind,
        bounds: Optional[BoundSet],
        backend: CompactGraph,
    ) -> QueryResult:
        if kind is AlgorithmKind.INDEXED:
            raise IndexParameterError(_INDEXED_IS_MONOCHROMATIC)
        if kind is AlgorithmKind.NAIVE:
            return bichromatic_naive_reverse_k_ranks(
                self._partition, query, k, backend=backend
            )
        masks = self._partition_masks(backend)
        if kind is AlgorithmKind.STATIC:
            bounds = BoundSet.none()
        return bichromatic_reverse_k_ranks(
            self._partition, query, k, bounds=bounds, backend=backend,
            masks=masks, arena=self._arena,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        mode = "bichromatic" if self.is_bichromatic else "monochromatic"
        indexed = "indexed" if self._index is not None else "no-index"
        return f"<ReverseKRanksEngine {mode} {indexed} graph={self._graph!r}>"
