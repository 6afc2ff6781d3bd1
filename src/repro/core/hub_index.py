"""The hub index: Check Dictionary + Reverse Rank Dictionary (Section 5).

The index precomputes, for ``H`` hub vertices, the ranks of their ``M``
nearest neighbours (one truncated Dijkstra per hub) and serves three duties
during a query for ``q``:

* **seeding** — every stored ``Rank(h, q)`` entry (Reverse Rank Dictionary)
  is offered to the result set before the traversal starts, tightening
  ``kRank`` early;
* **answering** — when the traversal settles a node ``p`` whose exact
  ``Rank(p, q)`` is stored, the refinement is skipped entirely;
* **pruning** — the Check Dictionary stores, per explored source ``p``, the
  largest rank value its explorations assigned.  If ``q`` was *not* among the
  nodes settled from ``p``, then ``d(p, q)`` is at least the distance of the
  last node settled from ``p``, hence ``Rank(p, q)`` is at least that largest
  recorded rank — a valid lower bound even under distance ties, because
  recorded ranks already count only *strictly closer* tie groups.

The framework only consults :meth:`check_value` after :meth:`known_rank`
returned ``None`` for the current query, which is exactly the situation where
the bound is sound.

The index keeps learning: every rank refinement performed by the indexed
algorithm reports its settled nodes back via :meth:`record_rank` /
:meth:`record_exploration` (Algorithm 4), so repeated queries on the same
index get progressively cheaper.

The stored ranks are **monochromatic** (every node counts).  Bichromatic
queries use different rank semantics and must not share an index; the engine
enforces this.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import tempfile
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Tuple, Union

from repro.core.hubs import HubSelectionStrategy, hub_budget, select_hubs
from repro.errors import (
    IndexCapacityError,
    IndexParameterError,
    NodeNotFoundError,
    is_positive_int,
)
from repro.graph.csr import as_compact
from repro.traversal.csr_ops import explore_row

#: On-disk serialisation format marker and version (see :meth:`HubIndex.save`).
_IO_FORMAT = "repro-hubindex"
_IO_VERSION = 1
#: Magic prefix written before the pickle payload; checked *before*
#: unpickling so a random file never reaches :func:`pickle.load`.
_IO_MAGIC = b"REPRO-HUBINDEX/1\n"


def _graph_digest(graph) -> str:
    """Content digest of a graph's adjacency (nodes, wiring and weights).

    Structural counts and the mutation version cannot distinguish two
    graphs built by identical mutation sequences with different weights;
    this O(V+E) digest can.  It walks adjacency in the graph's iteration
    order, which is deterministic for a reproducible construction sequence
    (the same property the version check relies on).
    """
    digest = hashlib.sha256()
    digest.update(f"{int(graph.directed)}|{graph.num_nodes}".encode())
    for node in graph.nodes():
        digest.update(repr(node).encode())
        for neighbor, weight in graph.neighbor_items(node):
            digest.update(f"|{neighbor!r}:{weight!r}".encode())
        digest.update(b";")
    return digest.hexdigest()

NodeId = Hashable

#: Placeholder source before the first run in :meth:`HubIndex._record_delta`.
_NO_SOURCE = object()

_INF = float("inf")

__all__ = ["HubIndex", "HubIndexDelta"]


@dataclass
class HubIndexDelta:
    """A picklable record of ranks learned by indexed queries (Algorithm 4).

    Worker processes in :mod:`repro.parallel` answer indexed queries on a
    *replica* of the engine's master index; everything their refinements
    learn is captured in one of these and merged back into the master via
    :meth:`HubIndex.merge_delta` when the batch completes, so the master
    keeps compounding knowledge exactly as a sequentially-warmed index
    would.  What the master learns itself reaches the replicas the same
    way, and the query server journals one per batch.

    ``ranks`` maps ``(source, target)`` to the exact ``Rank(source,
    target)``; because recorded ranks are exact, concurrent learners can
    only ever disagree on *which* entries they discovered, never on a
    value — last-writer-wins merging is therefore safe.  ``explorations``
    accumulates per-source settled-node counts.  ``graph_version`` pins
    the delta to the graph mutation version its snapshot was taken at;
    merging into an index built for any other version is rejected.

    **Repair deltas** (:meth:`HubIndex.repair`) additionally carry
    ``removed_sources`` — sources whose entries an incremental graph
    update invalidated, dropped *before* the re-learned ``ranks`` are
    applied — ``trimmed``, which maps each hub whose row the repair
    resumed to the length of the unchanged prefix it keeps (trimmed in
    place, with the drops; the hub's ``ranks`` and ``explorations`` then
    hold only the tail its resumed exploration appended) — and
    ``repaired_to_version``, the graph version the repair advances the
    index to.  ``graph_version`` then names the *pre*-repair version the
    receiving index must be at; after applying, its version is
    ``repaired_to_version``.  These fields default to empty/``None``, so
    plain learning deltas (and deltas unpickled from journals written
    before repairs or trims existed, which lack the attributes entirely)
    behave exactly as before.

    A delta is falsy only when merging it changes nothing: a repair
    delta is always truthy, because it advances the index's version
    even when it carries no entry.
    """

    graph_version: Optional[int] = None
    ranks: Dict[Tuple[NodeId, NodeId], int] = field(default_factory=dict)
    explorations: Dict[NodeId, int] = field(default_factory=dict)
    removed_sources: Tuple[NodeId, ...] = ()
    repaired_to_version: Optional[int] = None
    trimmed: Dict[NodeId, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(
            self.ranks
            or self.explorations
            or self.removed_sources
            or self.repaired_to_version is not None
        )

    def __len__(self) -> int:
        return len(self.ranks)


class HubIndex:
    """Precomputed rank knowledge shared by indexed reverse k-ranks queries.

    Parameters
    ----------
    graph:
        The graph the index describes.  Queries with a different graph are
        rejected by :meth:`ensure_compatible`.
    capacity:
        The paper's ``K``: only ranks ``<= capacity`` enter the Reverse Rank
        Dictionary, and queries must request ``k <= capacity``.
    hubs:
        The hub vertices whose neighbourhoods were (or will be) explored.

    Use :meth:`build` to construct and populate an index in one step.
    """

    __slots__ = (
        "_graph",
        "_graph_version",
        "_capacity",
        "_hubs",
        "_known",
        "_reverse",
        "_check",
        "_explored",
        "_explore_limit",
        "_dists",
        "_last_repair",
        "_last_settles",
        "_learning_log",
        "_enclosing_logs",
        "_revision",
    )

    def __init__(self, graph, capacity: int, hubs=()) -> None:
        if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity <= 0:
            raise IndexParameterError(
                f"index capacity K must be a positive integer, got {capacity!r}"
            )
        self._graph = graph
        self._graph_version = getattr(graph, "version", None)
        self._capacity = capacity
        self._hubs: List[NodeId] = list(hubs)
        for hub in self._hubs:
            if not graph.has_node(hub):
                raise NodeNotFoundError(hub)
        #: source -> target -> exact Rank(source, target)
        self._known: Dict[NodeId, Dict[NodeId, int]] = {}
        #: target -> source -> rank  (the Reverse Rank Dictionary)
        self._reverse: Dict[NodeId, Dict[NodeId, int]] = {}
        #: source -> largest rank ever recorded from it (the Check Dictionary)
        self._check: Dict[NodeId, int] = {}
        #: source -> total nodes settled across its explorations
        self._explored: Dict[NodeId, int] = {}
        #: the build's per-hub exploration budget (the paper's ``M``), as
        #: passed to :meth:`build` — ``None`` means "the whole graph".
        #: :meth:`repair` re-explores affected hubs at this budget so a
        #: repaired index matches a from-scratch rebuild.
        self._explore_limit: Optional[int] = None
        #: hub -> distances of its explored row, in settle order: the
        #: node of rank ``r`` lies at ``dists[r - 1]``.  Only
        #: :meth:`repair` reads them; they are never exported or saved.
        self._dists: Dict[NodeId, array] = {}
        #: (re-explored hubs, kept hubs) of the last :meth:`repair`
        self._last_repair: Tuple[tuple, tuple] = ((), ())
        #: (reused, explored) settles of the last :meth:`repair`
        self._last_settles: Tuple[int, int] = (0, 0)
        #: live :class:`HubIndexDelta` capturing record_* calls, or ``None``
        self._learning_log: Optional[HubIndexDelta] = None
        #: the logs :attr:`_learning_log` is nested in, outermost first
        self._enclosing_logs: List[HubIndexDelta] = []
        #: monotonic count of record_rank/record_exploration calls — the
        #: learned-state revision (see :attr:`revision`)
        self._revision = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph,
        num_hubs: Union[int, str, None] = None,
        explore_limit: Union[int, str, None] = None,
        capacity: int = 16,
        strategy: Union[HubSelectionStrategy, str] = HubSelectionStrategy.DEGREE,
        hubs=None,
        rng: Optional[random.Random] = None,
        backend=None,
        explore=None,
    ) -> "HubIndex":
        """Select hubs and precompute their neighbourhood ranks.

        Parameters
        ----------
        num_hubs:
            The paper's ``H``; defaults to ``max(1, |V| // 8)``.  The
            string ``"auto"`` resolves through
            :func:`~repro.core.hubs.hub_budget` to a hub count that grows
            sub-linearly with the graph (the huge-scale default).
            Ignored when ``hubs`` is given explicitly.
        explore_limit:
            The paper's ``M``: how many nodes each hub exploration settles.
            Defaults to the whole graph (exact on small graphs); ``"auto"``
            resolves through :func:`~repro.core.hubs.hub_budget`.
        capacity:
            The paper's ``K`` (largest supported query ``k``).
        strategy:
            Hub selection strategy, see :func:`~repro.core.hubs.select_hubs`.
        hubs:
            Explicit hub vertices, bypassing strategy selection.
        rng:
            Random generator forwarded to hub selection.
        backend:
            Optional fresh :class:`~repro.graph.csr.CompactGraph`
            compilation of ``graph`` for hub selection and the hub
            explorations to run on; without one ``graph`` is compiled once
            here.  The index stays bound (and version-pinned) to
            ``graph``.  Under an ``explore_limit`` the boundary tie group
            is cut by node index (see
            :func:`~repro.traversal.csr_ops.explore_row`), so every
            build of one graph records the same entries.
        explore:
            Optional ``explore(hubs, limit)`` hook that explores hubs
            elsewhere — the engine's worker pool
            (:meth:`~repro.parallel.pool.WorkerPool.explore_hubs`), each
            worker a contiguous chunk on its own copy of ``backend``.  As
            in :meth:`repair`, it returns the ``(hub, row, dists)``
            triples of :meth:`explore_hubs` for a prefix of ``hubs``;
            they are installed in order and the index explores the rest
            itself, so the result, stored distances included, is
            bit-identical to a build without the hook.
        """
        num_hubs, explore_limit = cls._resolve_budget(
            graph, num_hubs, explore_limit
        )
        limit = graph.num_nodes if explore_limit is None else explore_limit
        if not is_positive_int(limit):
            raise IndexParameterError(
                f"explore_limit M must be a positive integer, got {explore_limit!r}"
            )
        # Same freshness bar as the SDS entry points: ranks recorded from a
        # stale or foreign compilation would be pinned to the *current*
        # graph version and served as exact answers forever.
        search_graph = as_compact(graph, backend, exc_type=IndexParameterError)
        if hubs is None:
            if num_hubs is None:
                num_hubs = max(1, graph.num_nodes // 8)
            hubs = select_hubs(
                search_graph, num_hubs, strategy=strategy, rng=rng
            )
        index = cls(graph, capacity, hubs)
        index._explore_limit = explore_limit
        index._explore_in_order(index._hubs, limit, search_graph, explore)
        return index

    @staticmethod
    def _resolve_budget(graph, num_hubs, explore_limit):
        """Resolve ``"auto"`` hub-budget markers against the graph size."""
        if num_hubs == "auto" or explore_limit == "auto":
            auto_hubs, auto_explore = hub_budget(graph.num_nodes)
            if num_hubs == "auto":
                num_hubs = auto_hubs
            if explore_limit == "auto":
                explore_limit = auto_explore
        return num_hubs, explore_limit

    def explore_hubs(
        self, hubs, limit: int, search_graph=None, prefixes=None
    ) -> List[Tuple[NodeId, Dict[NodeId, int], array]]:
        """Settle up to ``limit`` nodes around each hub, in order.

        Returns ``(hub, row, dists)`` triples — ``row`` maps each settled
        node to its exact rank, in settling order, and ``dists`` holds
        their distances in the same order — without recording them:
        :meth:`merge_rows` installs them, here or, for a pool worker's
        share of a build or repair, in the parent.  ``search_graph``
        (default: a compilation of the index's own graph) is what the
        explorations run on.  ``prefixes`` maps a hub whose row a repair
        trimmed to the distances of the entries it kept; its exploration
        resumes after the row the index holds for it
        (:func:`~repro.traversal.csr_ops.explore_row`), and its triple
        holds only the tail.
        """
        search_graph = as_compact(self._graph, search_graph)
        prefixes = prefixes or {}
        rows = []
        for hub in hubs:
            prefix = prefixes.get(hub)
            if prefix is not None:
                prefix = (self._known[hub], prefix)
            rows.append(
                (hub, *explore_row(
                    search_graph, search_graph.index_of(hub), limit, prefix
                ))
            )
        return rows

    def _explore_in_order(
        self, hubs, limit: int, search_graph, explore, prefixes=None
    ) -> None:
        """Explore ``hubs`` in order: a prefix through ``explore``, the rest here.

        ``explore(hubs, limit)`` (or ``None``) returns the ``(hub, row,
        dists)`` triples of a prefix of ``hubs``, explored elsewhere;
        they are installed with :meth:`merge_rows` and the remaining hubs
        are explored on ``search_graph``, each resuming after its entry
        in ``prefixes`` if it has one — the same recording sequence as
        exploring every hub here.  :meth:`build` and :meth:`repair` both
        run their explorations through this.
        """
        rows = explore(hubs, limit) if explore is not None else []
        self.merge_rows(rows)
        # One hub at a time: a build holds one row besides the index.
        for hub in hubs[len(rows):]:
            self.merge_rows(
                self.explore_hubs([hub], limit, search_graph, prefixes)
            )

    def merge_rows(self, rows) -> None:
        """Record ``(hub, row, dists)`` explorations, in order.

        ``row`` continues what the index holds from ``hub``: a whole row
        (a new hub, or one a repair dropped) or the tail a resumed
        exploration settled after the prefix a repair trimmed the row to.
        Equivalent — values, dict insertion orders and :attr:`revision`
        — to the :meth:`record_rank` / :meth:`record_exploration` calls
        that exploring the hubs here, in the same order, would make.  The
        rows must describe this index's graph version; nothing checks it.
        ``dists`` (the row's distances in settle order, or ``None``)
        extends the hub's stored distances, kept for :meth:`repair`'s
        disturbance bound.
        """
        for hub, row, dists in rows:
            self._record_row(hub, row)
            self.record_exploration(hub, len(row))
            if dists is not None:
                stored = self._dists.get(hub)
                if stored is None:
                    self._dists[hub] = dists
                else:
                    stored.extend(dists)

    # ------------------------------------------------------------------
    # Persistence (stdlib-only; lets servers restart warm)
    # ------------------------------------------------------------------
    def save(self, path, meta: Optional[Dict[str, object]] = None) -> Path:
        """Serialise the index to ``path`` (magic prefix + stdlib :mod:`pickle`).

        The payload carries a versioned header — format marker, I/O
        version, the graph's mutation :attr:`~repro.graph.Graph.version`
        snapshot, a structural fingerprint (node/edge counts,
        directedness) and an adjacency/weight content digest — so
        :meth:`load` can refuse to rebind the entries to a graph they were
        not computed on, including a graph with the same shape but
        different weights.  The graph itself is *not* serialised; pass it
        to :meth:`load`.

        ``meta`` is an optional caller-owned dictionary stored verbatim
        alongside the index and returned by :meth:`load_with_meta`; the
        durable-store layer (:mod:`repro.serve.journal`) uses it to
        record, atomically *inside* the snapshot, the journal sequence
        number the snapshot folds in — the fact that makes
        snapshot-then-journal-replay idempotent across a crash between
        the two compaction steps.  Files written without ``meta`` load
        with an empty one.

        .. warning::
           The payload is pickle-based.  Only load index files from
           trusted locations you (or your deployment) wrote — unpickling
           attacker-controlled data can execute arbitrary code.  The magic
           prefix keeps *accidental* non-index files away from the
           unpickler; it is not a security boundary.

        The write is **atomic**: the payload goes to a temp file in the
        target's directory, is flushed and fsynced, and only then renamed
        over ``path`` with :func:`os.replace`.  A crash, full disk or
        kill -9 mid-save therefore leaves either the previous index file
        intact or no file — never a truncated file whose valid magic
        prefix would usher garbage into the unpickler.  (Same-directory
        matters: :func:`os.replace` is only atomic within a filesystem.)

        Raises
        ------
        IndexParameterError
            If the graph mutated after the index was built: the entries
            no longer describe the current adjacency, and the header
            would pair the build-time version with a digest of the
            mutated graph — a file :meth:`load` could mistake for fresh.
        """
        self.ensure_fresh()
        payload = {
            "format": _IO_FORMAT,
            "io_version": _IO_VERSION,
            "graph_version": self._graph_version,
            "graph_nodes": self._graph.num_nodes,
            "graph_edges": self._graph.num_edges,
            "graph_directed": self._graph.directed,
            "graph_digest": _graph_digest(self._graph),
            "capacity": self._capacity,
            "hubs": self._hubs,
            "known": self._known,
            "reverse": self._reverse,
            "check": self._check,
            "explored": self._explored,
            "explore_limit": self._explore_limit,
            "meta": dict(meta or {}),
        }
        target = Path(path)
        descriptor, temp_name = tempfile.mkstemp(
            dir=str(target.parent) or ".",
            prefix=f".{target.name}.",
            suffix=".tmp",
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(_IO_MAGIC)
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_name, target)
        except BaseException:
            # A failed save must never clobber a previously-good index
            # file — the target is untouched; just reap the temp file.
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return target

    @classmethod
    def load(cls, path, graph) -> "HubIndex":
        """Deserialise an index from ``path`` and bind it to ``graph``.

        See :meth:`load_with_meta`, which this delegates to (dropping the
        caller metadata), for the validation contract.
        """
        index, _ = cls.load_with_meta(path, graph)
        return index

    @classmethod
    def load_with_meta(cls, path, graph) -> Tuple["HubIndex", Dict[str, object]]:
        """Deserialise an index plus the caller ``meta`` dict :meth:`save` stored.

        Only use ``path``\\ s you trust: the on-disk format is pickle-based
        (see the :meth:`save` warning); the magic-prefix check runs before
        any unpickling, so merely *wrong* files are rejected cheaply.

        Raises
        ------
        IndexParameterError
            When the file is not a hub-index payload, is truncated or
            corrupted after a valid magic prefix (a partially-written
            file from a pre-atomic-save crash must fail *typed*, not as a
            raw ``UnpicklingError``/``EOFError``), was written by an
            incompatible I/O version, or describes a different graph — a
            mismatched structural fingerprint, mutation version or
            adjacency digest would silently serve wrong ranks.
        """
        with open(Path(path), "rb") as handle:
            magic = handle.read(len(_IO_MAGIC))
            if magic != _IO_MAGIC:
                raise IndexParameterError(
                    f"{path!s} is not a serialised hub index"
                )
            try:
                payload = pickle.load(handle)
            except Exception as exc:
                # EOFError/UnpicklingError/AttributeError/...: anything
                # the unpickler throws at a half-written or bit-rotted
                # payload surfaces as the domain error, so callers can
                # catch that one error and fall back to a rebuild
                # instead of crashing on stdlib internals.
                raise IndexParameterError(
                    f"{path!s} is truncated or corrupted after its magic "
                    f"prefix ({type(exc).__name__}: {exc}); delete it and "
                    "rebuild the index"
                ) from exc
        if not isinstance(payload, dict) or payload.get("format") != _IO_FORMAT:
            raise IndexParameterError(
                f"{path!s} is not a serialised hub index"
            )
        if payload.get("io_version") != _IO_VERSION:
            raise IndexParameterError(
                f"unsupported hub-index I/O version {payload.get('io_version')!r} "
                f"(this build reads version {_IO_VERSION})"
            )
        missing = [
            key
            for key in (
                "graph_version", "graph_nodes", "graph_edges",
                "graph_directed", "graph_digest", "capacity", "hubs",
                "known", "reverse", "check", "explored",
            )
            if key not in payload
        ]
        if missing:
            raise IndexParameterError(
                f"{path!s} is a corrupted hub-index payload: missing "
                f"fields {missing}; delete it and rebuild the index"
            )
        if (
            payload["graph_nodes"] != graph.num_nodes
            or payload["graph_edges"] != graph.num_edges
            or payload["graph_directed"] != graph.directed
        ):
            raise IndexParameterError(
                "serialised hub index describes a different graph "
                f"(stored |V|={payload['graph_nodes']}, |E|={payload['graph_edges']}, "
                f"directed={payload['graph_directed']}; got |V|={graph.num_nodes}, "
                f"|E|={graph.num_edges}, directed={graph.directed})"
            )
        stored_version = payload["graph_version"]
        current_version = getattr(graph, "version", None)
        if stored_version is not None and stored_version != current_version:
            raise IndexParameterError(
                "serialised hub index is stale for this graph (stored graph "
                f"version {stored_version}, current {current_version}); rebuild it"
            )
        if payload["graph_digest"] != _graph_digest(graph):
            raise IndexParameterError(
                "serialised hub index describes a different graph: the "
                "adjacency/weight content digest does not match (same shape, "
                "different wiring or weights); rebuild it"
            )
        index = cls(graph, payload["capacity"], payload["hubs"])
        index._known = payload["known"]
        index._reverse = payload["reverse"]
        index._check = payload["check"]
        index._explored = payload["explored"]
        # Files written before repairs existed lack the budget; they load
        # with ``None`` (whole-graph re-exploration on repair), same as
        # pre-meta files (io_version 1 predates both fields) load with {}.
        index._explore_limit = payload.get("explore_limit")
        return index, dict(payload.get("meta") or {})

    # ------------------------------------------------------------------
    # Snapshots, learning deltas and merging (the repro.parallel surface)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """A picklable snapshot of everything the index knows (graph excluded).

        The worker pool ships one of these to each worker at startup;
        :meth:`from_state` rebinds it to the worker's own
        :class:`~repro.graph.csr.CompactGraph` copy.  Dictionaries are
        copied, so the snapshot is immune to the master index continuing
        to learn after the export.

        Raises
        ------
        IndexParameterError
            If the index is stale for its graph — a snapshot of wrong
            ranks must never reach a worker.
        """
        self.ensure_fresh()
        return {
            "graph_version": self._graph_version,
            "capacity": self._capacity,
            "hubs": list(self._hubs),
            "known": {source: dict(targets) for source, targets in self._known.items()},
            "reverse": {target: dict(sources) for target, sources in self._reverse.items()},
            "check": dict(self._check),
            "explored": dict(self._explored),
            "explore_limit": self._explore_limit,
        }

    @classmethod
    def from_state(cls, graph, state: Dict[str, object]) -> "HubIndex":
        """Rebind an :meth:`export_state` snapshot to ``graph``.

        ``graph`` may be the original :class:`~repro.graph.Graph` or a
        :class:`~repro.graph.csr.CompactGraph` compilation of it (the
        worker-process case) — node identifiers, which every dictionary is
        keyed by, are identical in both.  The snapshot's
        ``graph_version`` is preserved verbatim, so freshness checks keep
        comparing against the *master* graph's version (a compilation
        reports its compile-time version via
        :attr:`~repro.graph.csr.CompactGraph.version`).
        """
        index = cls(graph, int(state["capacity"]), state["hubs"])
        index._graph_version = state["graph_version"]
        index._known = {source: dict(targets) for source, targets in state["known"].items()}
        index._reverse = {target: dict(sources) for target, sources in state["reverse"].items()}
        index._check = dict(state["check"])
        index._explored = dict(state["explored"])
        index._explore_limit = state.get("explore_limit")
        return index

    def rebind(self, graph) -> None:
        """Bind the index, as it stands, to ``graph``.

        A pool worker keeps its index across a graph update instead of
        rebuilding it from a snapshot: it applies the repair's drops
        (advancing the index to the new version), then rebinds to the
        overlay it rebuilt for that version.

        Raises
        ------
        IndexParameterError
            When ``graph`` is not at the index's graph version.
        """
        version = getattr(graph, "version", None)
        if self._graph_version is not None and version != self._graph_version:
            raise IndexParameterError(
                f"cannot rebind a hub index at graph version "
                f"{self._graph_version} to a graph at version {version}"
            )
        self._graph = graph

    def content_digest(self) -> str:
        """Digest of everything the index knows, whatever the dict orders.

        Covers the graph version, capacity, exploration budget, hub list
        and all four dictionaries, each walked in sorted key order — so
        a pool worker, which receives the same knowledge in a different
        order than the master, digests equal to it exactly when both
        know the same.
        """

        def ordered(table):
            return sorted(table.items(), key=lambda item: repr(item[0]))

        digest = hashlib.sha256()
        digest.update(
            repr(
                (self._graph_version, self._capacity, self._explore_limit,
                 self._hubs)
            ).encode()
        )
        for table in (self._known, self._reverse):
            for key, entries in ordered(table):
                digest.update(repr((key, ordered(entries))).encode())
            digest.update(b"#")
        for table in (self._check, self._explored):
            digest.update(repr(ordered(table)).encode())
        return digest.hexdigest()

    def start_learning_log(self) -> None:
        """Begin capturing subsequent :meth:`record_rank` /
        :meth:`record_exploration` calls into a fresh delta.

        Logs nest.  A log started while another is active captures
        alone until it is popped; :meth:`pop_learning_log` then folds its
        entries into the enclosing log, in the order recording into that
        log directly would have left them.  This is how the engine
        forwards its own learning to a worker pool while the query
        server journals the same batch.
        """
        if self._learning_log is not None:
            self._enclosing_logs.append(self._learning_log)
        self._learning_log = HubIndexDelta(graph_version=self._graph_version)

    def pop_learning_log(self) -> HubIndexDelta:
        """Stop capturing into the innermost log and return its delta.

        Returns an empty delta when no log was started — callers can
        always merge the result unconditionally.
        """
        log = self._learning_log
        if log is None:
            return HubIndexDelta(graph_version=self._graph_version)
        outer = self._enclosing_logs.pop() if self._enclosing_logs else None
        self._learning_log = outer
        if outer is not None:
            # dict.update keeps a key's first position and takes its
            # last value, as direct record_rank calls would.
            outer.ranks.update(log.ranks)
            explorations = outer.explorations
            for node, settled in log.explorations.items():
                explorations[node] = explorations.get(node, 0) + settled
        return log

    def merge_delta(self, delta: HubIndexDelta) -> int:
        """Merge ranks learned elsewhere into this index; returns entries merged.

        Entries are applied through :meth:`record_rank` /
        :meth:`record_exploration`, so the Reverse Rank and Check
        Dictionaries stay consistent with the merged knowledge.  On keys
        recorded by both sides the delta wins (last-writer-wins) — safe
        because recorded ranks are exact, hence any two writers of the
        same key wrote the same value unless one of them is stale, which
        the version check rejects.

        Raises
        ------
        IndexParameterError
            When this index is stale for its graph, when ``delta`` is not
            a :class:`HubIndexDelta`, or when the delta was captured at a
            different graph mutation version than this index was built
            for (its entries would describe a different adjacency), or
            when a repair delta trims a row to more entries than this
            index holds for it (then nothing changes).
        """
        if not isinstance(delta, HubIndexDelta):
            raise IndexParameterError(
                f"merge_delta expects a HubIndexDelta, got {type(delta).__name__}"
            )
        # ``getattr`` rather than attribute access: deltas unpickled from
        # journals written before repairs existed lack the fields entirely.
        repaired_to = getattr(delta, "repaired_to_version", None)
        if repaired_to is not None:
            return self._merge_repair_delta(delta, repaired_to)
        self.ensure_fresh()
        if (
            delta.graph_version is not None
            and self._graph_version is not None
            and delta.graph_version != self._graph_version
        ):
            raise IndexParameterError(
                "hub-index delta is stale: captured at graph version "
                f"{delta.graph_version}, index built for {self._graph_version}; "
                "discard it and re-learn"
            )
        self._record_delta(delta)
        return len(delta.ranks)

    def _merge_repair_delta(self, delta: HubIndexDelta, repaired_to: int) -> int:
        """Apply a :meth:`repair` delta produced by another index replica.

        A repair delta transitions a replica from ``delta.graph_version``
        (the pre-repair graph version, which this index must currently be
        at) to ``delta.repaired_to_version``.  The deliberate *absence* of
        freshness checks mirrors the situation it runs in: the replica's
        graph has already absorbed the mutation (so ``ensure_fresh`` would
        spuriously reject), and during journal replay the graph may be
        several mutations ahead of the delta being replayed — the
        version-chaining check below is the guard that matters, because a
        contiguous chain of repair deltas walks the index version forward
        step by step to wherever the graph ended up.  The delta's drops
        and trims apply before its ranks, which append each trimmed row's
        tail; every trim is checked against the row it cuts first.
        """
        if (
            delta.graph_version is not None
            and self._graph_version is not None
            and delta.graph_version != self._graph_version
        ):
            raise IndexParameterError(
                "hub-index repair delta does not chain: it repairs graph "
                f"version {delta.graph_version} -> {repaired_to}, but this "
                f"index is at version {self._graph_version}; replay the "
                "intermediate deltas first"
            )
        # ``getattr``: deltas pickled before trims existed lack the field.
        trimmed = getattr(delta, "trimmed", None) or {}
        for source, kept in trimmed.items():
            held = len(self._known.get(source, ()))
            if not 0 < kept <= held:
                raise IndexParameterError(
                    f"cannot trim the row of {source!r} to {kept} entries: "
                    f"this index holds {held}; the replica is out of step"
                )
        for source in getattr(delta, "removed_sources", ()):
            self._drop_source(source)
        for source, kept in trimmed.items():
            self._trim_source(source, kept)
        self._graph_version = repaired_to
        self._record_delta(delta)
        return len(delta.ranks)

    def _record_delta(self, delta: HubIndexDelta) -> None:
        """Record ``delta``'s ranks and explorations in their iteration order.

        Each run of consecutive entries from one source is recorded as
        one row (:meth:`_record_row`), so the result — values and every
        dict insertion order — is that of replaying the entries through
        :meth:`record_rank` one by one, at a fraction of the calls.
        """
        run_source: object = _NO_SOURCE
        run: Dict[NodeId, int] = {}
        for (source, target), rank in delta.ranks.items():
            if source != run_source:
                if run:
                    self._record_row(run_source, run)
                run_source, run = source, {}
            run[target] = rank
        if run:
            self._record_row(run_source, run)
        for node, settled in delta.explorations.items():
            self.record_exploration(node, settled)

    # ------------------------------------------------------------------
    # Incremental repair after graph mutations
    # ------------------------------------------------------------------
    def _drop_source(self, source: NodeId) -> None:
        """Forget everything recorded from ``source``, back-references included."""
        targets = self._known.pop(source, None)
        if targets:
            capacity = self._capacity
            reverse = self._reverse
            # Only ranks within capacity ever entered the Reverse Rank
            # Dictionary (record_rank / _record_row).
            for target, rank in targets.items():
                if rank <= capacity:
                    back = reverse.get(target)
                    if back is not None:
                        back.pop(source, None)
                        if not back:
                            del reverse[target]
        self._check.pop(source, None)
        self._explored.pop(source, None)
        self._dists.pop(source, None)
        self._revision += 1

    def _trim_source(self, source: NodeId, kept: int) -> None:
        """Keep only the first ``kept`` (at least one) entries recorded
        from ``source``.

        The row, the back-references of its kept entries and its stored
        distances stay where they are; the rest go.  Its Check
        Dictionary value becomes the rank of its last kept entry and its
        explored count ``kept`` — what recording the kept entries alone
        gives — so appending the tail a resumed exploration settles
        (:meth:`merge_rows`) leaves the index as dropping the row and
        recording the whole new one would.
        """
        targets = self._known[source]
        capacity = self._capacity
        reverse = self._reverse
        # Dicts pop in reverse insertion order: the tail, never the prefix.
        for _ in range(len(targets) - kept):
            target, rank = targets.popitem()
            if rank <= capacity:
                back = reverse.get(target)
                if back is not None:
                    back.pop(source, None)
                    if not back:
                        del reverse[target]
        self._check[source] = next(reversed(targets.values()))
        self._explored[source] = kept
        dists = self._dists.get(source)
        if dists is not None:
            del dists[kept:]
        self._revision += 1

    def repair(
        self,
        touched,
        search_graph=None,
        conservative: bool = False,
        removed_nodes=(),
        explore=None,
        changes=None,
    ) -> HubIndexDelta:
        """Incrementally repair the index after a graph mutation.

        Instead of discarding every stored rank when the graph's mutation
        :attr:`~repro.graph.Graph.version` moves, drop only the sources
        whose entries the mutation can have invalidated, re-explore the
        affected *hubs* at the build's exploration budget, and advance the
        index to the graph's current version.  Call **after** mutating the
        graph, with ``touched`` naming every endpoint of every effective
        change (added/removed/reweighted edges, added/removed nodes).

        Soundness of the affected-source test
        -------------------------------------
        A source ``p``'s entries came from one truncated Dijkstra that
        settled the set ``known[p]``; every unsettled node is at least as
        far as the last settled one.  A mutation can only change some
        ``Rank(p, t)`` for settled ``t`` if it changes a shortest-path
        distance ``d(p, x)`` for some ``x`` strictly closer than ``t``'s
        tie group, and such an ``x`` is itself settled.  Any create/
        shorten of a path to a settled ``x`` through edge ``(u, v)``, and
        any break of an existing shortest path through ``(u, v)``, forces
        ``u`` or ``v`` to appear *in* ``known[p]`` (for a deletion the
        shortest path ran through the edge, so its endpoints are strictly
        closer than ``x``'s boundary and were settled; for an insertion a
        new shorter path enters the settled region through its touched
        endpoint).  Hence ``p`` is unaffected whenever
        ``known[p] ∩ touched = ∅`` and ``p ∉ touched``.

        The one exception is mutations involving a **zero-weight** edge.
        Removing one can break a shortest path that continues through an
        *unsettled* member of the boundary tie group along zero-weight
        edges; inserting one from an unsettled boundary node can, under a
        truncated ``explore_limit``, change *which* boundary-tie-group
        members a from-scratch rebuild settles (ranks are unaffected, but
        the recorded entry set would differ).  Both evade the membership
        test, so callers must pass ``conservative=True`` whenever any
        effective change touches a zero-weight edge (the engine does),
        which treats every source as affected — trivially sound, and
        still cheaper than a teardown because replicas are patched via
        the delta instead of being rebuilt from scratch.

        The disturbance bound
        ---------------------
        A hub that fails the membership test is re-explored only from the
        first distance the batch can disturb, and *kept* — neither
        dropped nor re-explored — when that lies beyond its row.  Let
        ``d`` be its pre-batch distances.  A hub settles in ``(distance,
        node index)`` order and a settled node's rank ``r`` counts the
        strictly closer nodes, so the first member of its tie group sits
        at row position ``r - 1``: ``d = dists[r - 1]``; the hub itself
        lies at ``d = 0``.  Over the batch's net edge ``changes`` (an
        undirected edge read both ways, a directed one only its own way)
        the bound ``D`` is the least of these terms, or ``+inf`` when
        there is none:

        * ``d(v)`` for every removed or raised edge ``(u, v, w)`` that was
          tight: ``d(u) + w == d(v)`` with both ends settled;
        * ``d(u) + w'`` for every inserted or lowered edge ``(u, v, w')``
          from a settled ``u`` that improves a settled ``v`` (``d(u) + w'
          < d(v)``) or reaches an unsettled one.

        Let the radius ``R`` be the last settled distance when the row
        filled the exploration budget, and ``+inf`` when it did not (the
        hub settled all it reaches, always so under
        ``explore_limit=None``); an unsettled node lies at ``R`` or
        beyond.  With positive weights two facts hold:

        * *No node gets closer than* ``D``.  Follow any new path from the
          hub through its changed edges, in order; between them it runs
          over old edges no lighter than before.  At each changed edge
          ``(u, v, w')`` the path either leaves the row (``u`` is
          unsettled, so the path is already at ``R + w'`` or beyond),
          lands at ``D`` or beyond (the edge's term), or does not improve
          the edge's head (``v`` is settled with ``d(u) + w' >= d(v)``,
          and an old path reaches ``v`` as soon).  So a new path ending
          below ``D`` is no shorter than an old one.
        * *No node closer than* ``D`` *gets farther.*  Its old shortest
          path runs over closer nodes, each entered by a tight edge; had
          one of those edges been removed or raised, ``D`` would be at
          most that edge's far end.

        So the row entries with ``d < D`` keep their distances, ranks and
        order, and every other node lies at ``D`` or beyond.  Every term
        reads pre-batch distances, so the terms compose across the batch.
        The hub is kept when ``D`` is ``+inf`` or exceeds ``R``: its whole
        row, cut included, stays.  Otherwise its row is trimmed in place
        to the entries closer than ``D`` and its exploration resumes after
        them (:func:`~repro.traversal.csr_ops.explore_row`), appending
        only the tail; the first resumed node starts a new tie group with
        rank ``len(prefix) + 1``.

        The argument needs positive weights everywhere, not only on the
        changed edges: across a zero-weight edge a tie-group member is
        discovered only after another member settled, so the settle
        order is no longer ``(distance, node index)`` and a tight insert
        can reorder a cut tie group.  So a hub gets the full
        re-exploration, with no bound, when ``search_graph`` holds a
        zero-weight edge anywhere, the batch removed a node,
        ``conservative`` is on, the hub has no stored distances (an index
        from :meth:`load`, :meth:`from_state` or a delta replay), or its
        learned row outgrew its explored row.  Learned non-hub sources
        keep the membership test.

        Affected sources other than resumed hubs are dropped entirely
        (learned, non-hub sources are *not* re-explored — exactly the
        entries a from-scratch rebuild would not have either, so repaired
        answers match a rebuild's); affected hubs are re-explored in hub
        order at the stored ``explore_limit``.  ``removed_nodes`` are
        pruned from the hub list instead of re-explored.  :attr:`last_repair` names the hubs
        re-explored and kept, :attr:`last_repair_settles` counts the row
        entries reused from prefixes and the nodes settled anew.

        Parameters
        ----------
        touched:
            Node ids adjacent to any effective mutation.
        search_graph:
            Optional fresh :class:`~repro.graph.csr.CompactGraph` /
            overlay compilation to run the re-explorations on (validated
            via :func:`~repro.graph.csr.ensure_backend_fresh`); without
            one the graph is compiled once here.
        conservative:
            Treat *all* sources as affected (required when a zero-weight
            edge was removed or its weight raised).
        removed_nodes:
            Nodes deleted from the graph; implicitly part of ``touched``.
        explore:
            Optional ``explore(drops, hubs, limit, prefixes)`` hook that
            re-explores the affected hubs elsewhere — the engine's worker
            pool, each worker a contiguous chunk on its own copy of the
            mutated graph (see
            :meth:`~repro.parallel.pool.WorkerPool.update_graph`).
            ``drops`` is the repair delta before any re-exploration
            (``removed_sources``, ``trimmed`` and the two versions),
            ``hubs`` the affected hubs in hub order, ``limit`` the
            exploration budget and ``prefixes`` maps each resumed hub to
            a copy of the distances of the prefix ``drops`` trims its row
            to (hubs without one start from scratch).  Like
            :meth:`build`'s hook, it returns the ``(hub, row, dists)``
            triples of :meth:`explore_hubs` for a prefix of ``hubs`` (all
            of them, or none when the pool failed): whole rows, and only
            the tails of resumed hubs.  They are installed in order and
            the index explores the rest itself, from the same prefixes,
            so the result is bit-identical to a repair without the hook.
        changes:
            The batch's net edge changes, ``(source, target, before,
            after)`` with the pre- and post-batch weights (``None`` for
            an absent edge); an undirected edge is listed once.  Without
            them every affected hub is re-explored from scratch.

        Returns
        -------
        HubIndexDelta
            A repair delta (``removed_sources`` and ``trimmed`` +
            re-learned ranks, ``graph_version`` = pre-repair version,
            ``repaired_to_version`` = the graph's current version) that
            :meth:`merge_delta` applies to replicas still at the
            pre-repair version.

        Raises
        ------
        IndexParameterError
            When a learning log is active (pop it first — the repair
            would corrupt its version pinning), or ``search_graph`` is
            stale for the graph.
        """
        if self._learning_log is not None:
            raise IndexParameterError(
                "cannot repair while a learning log is active: pop the log "
                "and merge it before applying graph mutations"
            )
        self._last_repair = ((), ())
        self._last_settles = (0, 0)
        old_version = self._graph_version
        new_version = getattr(self._graph, "version", None)
        if old_version is not None and new_version == old_version:
            # The mutation batch was a no-op; nothing to invalidate.
            return HubIndexDelta(graph_version=old_version)
        search_graph = as_compact(
            self._graph, search_graph, exc_type=IndexParameterError
        )
        removed_set = set(removed_nodes)
        touched_set = set(touched) | removed_set
        affected: List[NodeId] = []
        seen = set()
        if conservative:
            for source in self._known:
                affected.append(source)
                seen.add(source)
            for source in self._explored:
                if source not in seen:
                    affected.append(source)
                    seen.add(source)
            for hub in self._hubs:
                if hub not in seen:
                    affected.append(hub)
                    seen.add(hub)
        else:
            for source, targets in self._known.items():
                # dict_keys.isdisjoint walks the smaller side: touched.
                if source in touched_set or not targets.keys().isdisjoint(
                    touched_set
                ):
                    affected.append(source)
                    seen.add(source)
            # Sources with exploration counts but no surviving rank
            # entries (e.g. hubs that settled nothing), and hubs that are
            # themselves mutation endpoints, must be refreshed too.
            for source in self._explored:
                if source not in seen and source in touched_set:
                    affected.append(source)
                    seen.add(source)
            for hub in self._hubs:
                if hub not in seen and hub in touched_set:
                    affected.append(hub)
                    seen.add(hub)
        limit = (
            self._graph.num_nodes
            if self._explore_limit is None
            else self._explore_limit
        )
        kept = set()
        cuts = {}
        if changes is not None and not conservative and not removed_set:
            # Before the drops below discard the rows.
            kept, cuts = self._resume_points(
                affected, changes, search_graph, limit
            )
        removed = []
        for source in affected:
            if source in cuts:
                self._trim_source(source, cuts[source])
            elif source not in kept:
                self._drop_source(source)
                removed.append(source)
        if removed_set:
            self._hubs = [hub for hub in self._hubs if hub not in removed_set]
        self._graph_version = new_version
        delta = HubIndexDelta(
            graph_version=old_version,
            removed_sources=tuple(removed),
            repaired_to_version=new_version,
            trimmed=cuts,
        )
        hubs = [hub for hub in self._hubs if hub in seen and hub not in kept]
        self._last_repair = (
            tuple(hubs), tuple(hub for hub in self._hubs if hub in kept)
        )
        prefixes = {hub: self._dists[hub] for hub in cuts}
        if explore is not None:
            # The hook gets its own copy: ``delta`` fills up below.  So do
            # the prefixes: the rows installed below extend these arrays,
            # and a pool queue pickles them after ``put`` returns.
            explore = partial(
                explore,
                replace(delta, ranks={}, explorations={}),
                prefixes={hub: dists[:] for hub, dists in prefixes.items()},
            )
        # Route the re-explorations through the delta so replicas receive
        # exactly what the master re-learned.
        self._learning_log = delta
        try:
            self._explore_in_order(
                hubs, limit, search_graph, explore, prefixes
            )
        finally:
            self._learning_log = None
        self._last_settles = (
            sum(cuts.values()), sum(delta.explorations.values())
        )
        return delta

    def _resume_points(self, affected, changes, search_graph, limit: int):
        """``(kept hubs, cuts)``: the hubs among ``affected`` whose bound
        lies beyond their row, and the length of the unchanged prefix of
        each other one (hubs whose prefix is empty have no entry)."""
        dists = self._dists
        candidates = [
            hub
            for hub in affected
            if hub in dists
            and len(self._known.get(hub, ())) == len(dists[hub])
        ]
        if not candidates or search_graph.has_zero_weight:
            return set(), {}
        edges = list(changes)
        if not self._graph.directed:
            edges += [(v, u, before, after) for u, v, before, after in changes]
        kept = set()
        cuts = {}
        for hub in candidates:
            hub_dists = dists[hub]
            bound = self._disturbance(
                hub, self._known.get(hub, {}), hub_dists, edges
            )
            radius = hub_dists[-1] if len(hub_dists) >= limit else _INF
            if bound == _INF or bound > radius:
                kept.add(hub)
                continue
            cut = bisect_left(hub_dists, bound)
            if cut:
                cuts[hub] = cut
        return kept, cuts

    @staticmethod
    def _disturbance(hub: NodeId, row, dists, edges) -> float:
        """The bound ``D`` of :meth:`repair` for ``hub``'s pre-batch
        ``row`` and ``dists``; ``edges`` lists an undirected change both
        ways."""
        bound = _INF
        for source, target, before, after in edges:
            if source == hub:
                reach = 0.0
            else:
                rank = row.get(source)
                if rank is None:
                    continue  # unsettled: at the radius or beyond
                reach = dists[rank - 1]
            if target == hub:
                far = 0.0
            else:
                rank = row.get(target)
                far = None if rank is None else dists[rank - 1]
            if before is not None and (after is None or after > before):
                if far is not None and reach + before == far < bound:
                    bound = far  # a tight edge removed or raised
            if after is not None and (before is None or after < before):
                reach += after
                if (far is None or reach < far) and reach < bound:
                    bound = reach  # an insert improving or reaching a node
        return bound

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The graph this index was built for."""
        return self._graph

    @property
    def capacity(self) -> int:
        """The largest ``k`` the index supports (the paper's ``K``)."""
        return self._capacity

    @property
    def hubs(self) -> List[NodeId]:
        """The hub vertices."""
        return list(self._hubs)

    @property
    def num_known_ranks(self) -> int:
        """Total number of exact rank entries stored."""
        return sum(len(targets) for targets in self._known.values())

    @property
    def revision(self) -> int:
        """Monotonic learned-state revision of this index *object*.

        Incremented once per recorded rank entry and per exploration
        (including those replayed by :meth:`merge_delta` and
        :meth:`merge_rows`) and once per source a repair drops or trims,
        so an unchanged value means nothing was learned, dropped or
        trimmed.  The query
        server's ``info`` op reports it.  The counter is local to the
        object: it is *not* serialised by :meth:`export_state`/:meth:`save`
        (a freshly loaded or rebuilt index starts at whatever its
        construction recorded), and worker replicas, which learn the same
        entries in another order, count differently.
        """
        return self._revision

    @property
    def last_repair(self) -> Tuple[tuple, tuple]:
        """``(re-explored hubs, kept hubs)`` of the last :meth:`repair`.

        Kept hubs failed the membership test but their disturbance bound
        lies beyond their row, so their rows stayed as they were.
        """
        return self._last_repair

    @property
    def last_repair_settles(self) -> Tuple[int, int]:
        """``(reused, explored)`` of the last :meth:`repair`: row entries
        taken from unchanged prefixes, and nodes its re-explorations
        settled anew."""
        return self._last_settles

    def explored_count(self, node: NodeId) -> int:
        """Total nodes settled by explorations from ``node``."""
        return self._explored.get(node, 0)

    # ------------------------------------------------------------------
    # Query-time surface (called by the framework)
    # ------------------------------------------------------------------
    def ensure_compatible(self, graph, k: int) -> None:
        """Reject queries on a different/mutated graph or ``k`` beyond capacity.

        Raises
        ------
        IndexParameterError
            When ``graph`` is a different object than the index was built
            for, or the same graph has been structurally mutated since the
            index snapshot (its :attr:`~repro.graph.Graph.version` moved) —
            stored ranks would silently be wrong in that case.
        IndexCapacityError
            When ``k`` exceeds the index capacity ``K``.
        """
        if graph is not self._graph:
            raise IndexParameterError(
                "hub index was built for a different graph; rebuild it"
            )
        self.ensure_fresh()
        if k > self._capacity:
            raise IndexCapacityError(k, self._capacity)

    def ensure_fresh(self) -> None:
        """Reject use of the index after its graph has been mutated."""
        if self._graph_version is None:
            return
        current = getattr(self._graph, "version", None)
        if current != self._graph_version:
            raise IndexParameterError(
                "hub index is stale: the graph has been mutated since the "
                f"index was built (version {self._graph_version} -> {current}); "
                "rebuild the index"
            )

    def known_rank(self, source: NodeId, target: NodeId) -> Optional[int]:
        """Exact ``Rank(source, target)`` if recorded, else ``None``."""
        entries = self._known.get(source)
        if entries is None:
            return None
        return entries.get(target)

    def known_reverse_ranks(self, target: NodeId) -> List[Tuple[NodeId, int]]:
        """All recorded ``(source, Rank(source, target))`` pairs.

        Sorted by rank (ties by ``repr``) so result seeding is deterministic.
        """
        entries = self._reverse.get(target, {})
        return sorted(entries.items(), key=lambda pair: (pair[1], repr(pair[0])))

    def check_value(self, node: NodeId) -> Optional[int]:
        """Check-Dictionary lower bound on ``Rank(node, q)`` for unknown ``q``.

        Only valid when ``known_rank(node, q)`` is ``None`` — see the module
        docstring for the argument.
        """
        return self._check.get(node)

    # ------------------------------------------------------------------
    # Learning (called during index build and by indexed refinements)
    # ------------------------------------------------------------------
    def record_rank(self, source: NodeId, target: NodeId, rank: int) -> None:
        """Store the exact ``Rank(source, target)`` discovered by a search."""
        self._known.setdefault(source, {})[target] = rank
        if rank <= self._capacity:
            self._reverse.setdefault(target, {})[source] = rank
        current = self._check.get(source)
        if current is None or rank > current:
            self._check[source] = rank
        self._revision += 1
        log = self._learning_log
        if log is not None:
            log.ranks[(source, target)] = rank

    def _record_row(self, source: NodeId, row: Dict[NodeId, int]) -> None:
        """Record ``Rank(source, t)`` for every ``(t, rank)`` of ``row``.

        The batched form of one :meth:`record_rank` call per entry, in
        row order: same values, same dict insertion orders, same
        :attr:`revision` and learning-log entries.  ``row`` is copied,
        never aliased — a row may still be queued for pickling to a pool
        worker while the index learns on.
        """
        if not row:
            return
        known = self._known.get(source)
        if known is None:
            known = self._known[source] = {}
        known.update(row)
        capacity = self._capacity
        reverse = self._reverse
        for target, rank in row.items():
            if rank <= capacity:
                back = reverse.get(target)
                if back is None:
                    reverse[target] = {source: rank}
                else:
                    back[source] = rank
        top = max(row.values())
        current = self._check.get(source)
        if current is None or top > current:
            self._check[source] = top
        self._revision += len(row)
        log = self._learning_log
        if log is not None:
            log.ranks.update(zip(zip(repeat(source), row), row.values()))

    def record_exploration(self, node: NodeId, settled: int) -> None:
        """Account one exploration from ``node`` that settled ``settled`` nodes."""
        self._explored[node] = self._explored.get(node, 0) + settled
        self._revision += 1
        log = self._learning_log
        if log is not None:
            log.explorations[node] = log.explorations.get(node, 0) + settled

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<HubIndex hubs={len(self._hubs)} capacity={self._capacity} "
            f"known_ranks={self.num_known_ranks}>"
        )
