"""Compact CSR (compressed sparse row) graph backend.

:class:`CompactGraph` is a frozen, int-indexed array view of a
:class:`~repro.graph.Graph`.  Adjacency is stored in three parallel
``array`` buffers per direction — offsets, endpoints and weights — so the
shortest-path hot loops can run over machine-typed arrays and integer node
indexes instead of hashing arbitrary node identifiers through dict-of-dict
storage on every relaxation.

Design notes
------------
* Both out- and in-adjacency are compiled (the SDS-tree is a Dijkstra tree
  on the transpose graph); for undirected graphs the two directions share
  the same buffers.
* Node indexes follow the source graph's iteration order and edge slices
  follow its adjacency iteration order, so a compilation enumerates every
  node's neighbours in exactly the order the originating
  :class:`~repro.graph.Graph` does.
* The view is immutable by construction: it exposes no mutators, and it
  snapshots the source graph's :attr:`~repro.graph.Graph.version` so caches
  (e.g. the engine's per-batch compilation) can detect staleness.
* Every search in :mod:`repro.traversal` runs on a compilation: the
  public entry points accept a :class:`~repro.graph.Graph` too and compile
  it once on entry through :func:`as_compact`.
"""

from __future__ import annotations

import hashlib
import weakref
from array import array
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import GraphValidationError, NodeNotFoundError
from repro.graph.graph import Graph, NodeId, Weight

__all__ = ["CompactGraph", "as_compact", "ensure_backend_fresh"]


def ensure_backend_fresh(graph, backend, exc_type=GraphValidationError) -> None:
    """Reject ``backend`` unless it is a fresh compilation of ``graph``.

    The single gate every consumer of a caller-supplied CSR compilation
    uses (SDS entry points, hub-index builds): ``backend`` must carry the
    ``is_compact`` marker, must have been compiled from ``graph`` itself
    (identity via the compilation's source weakref, when still alive), and
    must match ``graph``'s node count and mutation version.  ``exc_type``
    lets callers surface their domain exception.
    """
    if not getattr(backend, "is_compact", False):
        raise exc_type(
            "backend must be a CompactGraph compilation of the query graph"
        )
    if getattr(backend, "is_transposed", False):
        # A reverse_view() shares the source weakref, node count and
        # version of the forward compilation but has in/out adjacency
        # swapped — traversing it as the forward graph yields wrong ranks.
        raise exc_type(
            "backend is a transposed (reverse_view) compilation; pass the "
            "forward CompactGraph"
        )
    source = backend.source_graph
    if source is not None and source is not graph:
        raise exc_type(
            "backend CSR compilation was built from a different graph; "
            "recompile it for this one"
        )
    if backend.num_nodes != graph.num_nodes:
        raise exc_type(
            "backend CSR compilation does not match the query graph "
            f"({backend.num_nodes} vs {graph.num_nodes} nodes)"
        )
    version = getattr(graph, "version", None)
    if (
        version is not None
        and backend.source_version is not None
        and backend.source_version != version
    ):
        raise exc_type(
            "backend CSR compilation is stale: graph version "
            f"{version} vs compiled {backend.source_version}; recompile it"
        )


def as_compact(graph, backend=None, exc_type=GraphValidationError):
    """The compilation a search over ``graph`` traverses.

    ``graph`` itself when it is already compact (a :class:`CompactGraph`
    or overlay), else ``backend`` after :func:`ensure_backend_fresh`
    accepts it, else a fresh :meth:`CompactGraph.from_graph`.  Callers
    resolve this once per call and loop over the result.
    """
    if getattr(graph, "is_compact", False) and (
        backend is None or backend is graph
    ):
        return graph
    if backend is not None:
        ensure_backend_fresh(graph, backend, exc_type=exc_type)
        return backend
    return CompactGraph.from_graph(graph)


class CompactGraph:
    """A frozen CSR compilation of a :class:`~repro.graph.Graph`.

    Use :meth:`from_graph` to build one.  The class implements the read-only
    adjacency protocol of :class:`~repro.graph.Graph` (``has_node``,
    ``neighbor_items``, ``in_neighbor_items``, degrees, iteration), so every
    query algorithm accepts a :class:`CompactGraph` wherever it accepts a
    :class:`~repro.graph.Graph`; the searches themselves always run over
    the array buffers, in index space.
    """

    #: Marker consulted by :func:`as_compact` (duck-typed so overlays and
    #: shared-memory mappings qualify too).
    is_compact = True

    #: Overlay markers.  A plain compilation has no mutation side-table;
    #: :class:`~repro.graph.overlay.OverlayGraph` shadows these with per-
    #: instance row dicts (``index -> (targets array, weights array)``).
    #: The traversal loops probe ``csr.overlay_out`` / ``overlay_in``
    #: once per traversal, so the static-graph hot loops pay a single
    #: ``None`` check.
    is_overlay = False
    overlay_out: Optional[Dict[int, Tuple[array, array]]] = None
    overlay_in: Optional[Dict[int, Tuple[array, array]]] = None

    __slots__ = (
        "_directed",
        "name",
        "_num_edges",
        "_nodes",
        "_index_of",
        "_out_offsets",
        "_out_targets",
        "_out_weights",
        "_in_offsets",
        "_in_sources",
        "_in_weights",
        "_source_version",
        "_source_ref",
        "_transposed",
        "_digest",
    )

    def __init__(
        self,
        directed: bool,
        nodes: List[NodeId],
        out_offsets: array,
        out_targets: array,
        out_weights: array,
        in_offsets: array,
        in_sources: array,
        in_weights: array,
        num_edges: int,
        name: str = "",
        source_version: Optional[int] = None,
        index_of: Optional[Dict[NodeId, int]] = None,
        source_graph=None,
        transposed: bool = False,
    ) -> None:
        self._directed = directed
        self.name = name
        self._num_edges = num_edges
        self._nodes = nodes
        self._index_of: Dict[NodeId, int] = (
            index_of
            if index_of is not None
            else {node: index for index, node in enumerate(nodes)}
        )
        self._out_offsets = out_offsets
        self._out_targets = out_targets
        self._out_weights = out_weights
        self._in_offsets = in_offsets
        self._in_sources = in_sources
        self._in_weights = in_weights
        self._source_version = source_version
        # Weakly remember the source graph's identity so freshness checks
        # can reject a compilation of a *different* graph that happens to
        # share node count and mutation version; a weakref keeps the view
        # from pinning its source alive.
        self._source_ref = None
        if source_graph is not None:
            try:
                self._source_ref = weakref.ref(source_graph)
            except TypeError:  # source type without weakref support
                self._source_ref = None
        self._transposed = transposed
        self._digest: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "CompactGraph":
        """Compile ``graph`` into a frozen CSR view.

        Weights are copied bit-for-bit (``array('d')`` stores the same IEEE
        doubles), and adjacency order is preserved, so the compilation
        enumerates exactly the rows ``graph`` does.
        """
        nodes = list(graph.nodes())
        index_of = {node: index for index, node in enumerate(nodes)}

        out_offsets = array("q", [0])
        out_targets = array("q")
        out_weights = array("d")
        for node in nodes:
            for neighbor, weight in graph.neighbor_items(node):
                out_targets.append(index_of[neighbor])
                out_weights.append(weight)
            out_offsets.append(len(out_targets))

        if graph.directed:
            in_offsets = array("q", [0])
            in_sources = array("q")
            in_weights = array("d")
            for node in nodes:
                for neighbor, weight in graph.in_neighbor_items(node):
                    in_sources.append(index_of[neighbor])
                    in_weights.append(weight)
                in_offsets.append(len(in_sources))
        else:
            # Undirected adjacency is symmetric; share the buffers.
            in_offsets, in_sources, in_weights = out_offsets, out_targets, out_weights

        return cls(
            directed=graph.directed,
            nodes=nodes,
            out_offsets=out_offsets,
            out_targets=out_targets,
            out_weights=out_weights,
            in_offsets=in_offsets,
            in_sources=in_sources,
            in_weights=in_weights,
            num_edges=graph.num_edges,
            name=graph.name,
            source_version=getattr(graph, "version", None),
            index_of=index_of,
            source_graph=graph,
        )

    # ------------------------------------------------------------------
    # Basic properties (mirror repro.graph.Graph)
    # ------------------------------------------------------------------
    @property
    def directed(self) -> bool:
        """Whether the compiled graph is directed."""
        return self._directed

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of (logical) edges, undirected edges counted once."""
        return self._num_edges

    @property
    def average_degree(self) -> float:
        """Average out-degree (2·|E|/|V| for undirected graphs)."""
        if not self._nodes:
            return 0.0
        factor = 1 if self._directed else 2
        return factor * self._num_edges / self.num_nodes

    @property
    def source_version(self) -> Optional[int]:
        """The source graph's :attr:`~repro.graph.Graph.version` at compile time."""
        return self._source_version

    @property
    def version(self) -> Optional[int]:
        """Alias of :attr:`source_version`.

        A frozen compilation's "mutation version" is, by construction, its
        source graph's version at compile time — exposing it under the
        :class:`~repro.graph.graph.Graph` attribute name lets consumers
        that snapshot ``graph.version`` (notably
        :class:`~repro.core.hub_index.HubIndex`) treat a
        :class:`CompactGraph` as a first-class, always-fresh graph — the
        basis of the worker-process engines in :mod:`repro.parallel`.
        """
        return self._source_version

    @property
    def source_graph(self):
        """The graph this view was compiled from, or ``None`` if collected."""
        reference = self._source_ref
        return reference() if reference is not None else None

    def content_digest(self) -> str:
        """SHA-256 digest of directedness, node identifiers and adjacency.

        Computed lazily from the raw CSR buffers (``array.tobytes`` — the
        exact IEEE doubles, not a float rendering) and cached; two
        compilations digest equal iff they traverse identically.  The
        digest survives :mod:`pickle` round trips (see :meth:`__reduce__`),
        so a worker process can cheaply verify it received the same graph
        the coordinator compiled.
        """
        if self._digest is None:
            digest = hashlib.sha256()
            digest.update(
                f"{int(self._directed)}|{len(self._nodes)}|{self._num_edges}".encode()
            )
            for node in self._nodes:
                digest.update(repr(node).encode())
                digest.update(b";")
            digest.update(self._out_offsets.tobytes())
            digest.update(self._out_targets.tobytes())
            digest.update(self._out_weights.tobytes())
            self._digest = digest.hexdigest()
        return self._digest

    @property
    def is_transposed(self) -> bool:
        """Whether this view is a :meth:`reverse_view` of its source graph."""
        return self._transposed

    def __len__(self) -> int:
        return self.num_nodes

    def __contains__(self, node: NodeId) -> bool:
        return node in self._index_of

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "directed" if self._directed else "undirected"
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<CompactGraph{label} {kind} nodes={self.num_nodes} "
            f"edges={self.num_edges}>"
        )

    # ------------------------------------------------------------------
    # Index mapping (used by the array search loops)
    # ------------------------------------------------------------------
    def index_of(self, node: NodeId) -> int:
        """The dense array index of ``node``."""
        try:
            return self._index_of[node]
        except KeyError as exc:
            raise NodeNotFoundError(node) from exc

    def node_at(self, index: int) -> NodeId:
        """The node identifier stored at array ``index``."""
        return self._nodes[index]

    @property
    def node_ids(self) -> List[NodeId]:
        """Index-ordered node identifiers (do not mutate)."""
        return self._nodes

    def out_csr(self) -> Tuple[array, array, array]:
        """The out-adjacency buffers ``(offsets, targets, weights)``."""
        return self._out_offsets, self._out_targets, self._out_weights

    def in_csr(self) -> Tuple[array, array, array]:
        """The in-adjacency buffers ``(offsets, sources, weights)``."""
        return self._in_offsets, self._in_sources, self._in_weights

    # ------------------------------------------------------------------
    # Read-only adjacency protocol (duck-compatible with Graph)
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[NodeId]:
        """Iterate over node identifiers in index order."""
        return iter(self._nodes)

    def has_node(self, node: NodeId) -> bool:
        """Whether ``node`` is in the graph."""
        return node in self._index_of

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        """Whether the edge ``(source, target)`` exists."""
        source_index = self.index_of(source)
        target_index = self.index_of(target)
        offsets, targets, _ = self._out_offsets, self._out_targets, self._out_weights
        for position in range(offsets[source_index], offsets[source_index + 1]):
            if targets[position] == target_index:
                return True
        return False

    def weight(self, source: NodeId, target: NodeId) -> Weight:
        """Weight of edge ``(source, target)``; raises if absent."""
        from repro.errors import EdgeNotFoundError

        source_index = self.index_of(source)
        target_index = self.index_of(target)
        offsets, targets, weights = (
            self._out_offsets,
            self._out_targets,
            self._out_weights,
        )
        for position in range(offsets[source_index], offsets[source_index + 1]):
            if targets[position] == target_index:
                return weights[position]
        raise EdgeNotFoundError(source, target)

    def edges(self) -> Iterator[Tuple[NodeId, NodeId, Weight]]:
        """Iterate over edges as ``(source, target, weight)`` triples.

        Undirected edges are yielded once (smaller array index first).
        """
        offsets, targets, weights = (
            self._out_offsets,
            self._out_targets,
            self._out_weights,
        )
        for source_index, source in enumerate(self._nodes):
            for position in range(offsets[source_index], offsets[source_index + 1]):
                target_index = targets[position]
                if not self._directed and target_index < source_index:
                    continue
                yield source, self._nodes[target_index], weights[position]

    def neighbor_items(self, node: NodeId) -> Iterator[Tuple[NodeId, Weight]]:
        """Iterate over ``(out-neighbour, weight)`` pairs of ``node``."""
        index = self.index_of(node)
        offsets, targets, weights = (
            self._out_offsets,
            self._out_targets,
            self._out_weights,
        )
        nodes = self._nodes
        for position in range(offsets[index], offsets[index + 1]):
            yield nodes[targets[position]], weights[position]

    def neighbors(self, node: NodeId) -> Iterator[NodeId]:
        """Iterate over out-neighbours of ``node``."""
        index = self.index_of(node)
        offsets, targets = self._out_offsets, self._out_targets
        nodes = self._nodes
        for position in range(offsets[index], offsets[index + 1]):
            yield nodes[targets[position]]

    def in_neighbor_items(self, node: NodeId) -> Iterator[Tuple[NodeId, Weight]]:
        """Iterate over ``(in-neighbour, weight)`` pairs of ``node``."""
        index = self.index_of(node)
        offsets, sources, weights = (
            self._in_offsets,
            self._in_sources,
            self._in_weights,
        )
        nodes = self._nodes
        for position in range(offsets[index], offsets[index + 1]):
            yield nodes[sources[position]], weights[position]

    def in_neighbors(self, node: NodeId) -> Iterator[NodeId]:
        """Iterate over in-neighbours of ``node``."""
        index = self.index_of(node)
        offsets, sources = self._in_offsets, self._in_sources
        nodes = self._nodes
        for position in range(offsets[index], offsets[index + 1]):
            yield nodes[sources[position]]

    def out_degree(self, node: NodeId) -> int:
        """Out-degree of ``node``."""
        index = self.index_of(node)
        return self._out_offsets[index + 1] - self._out_offsets[index]

    def in_degree(self, node: NodeId) -> int:
        """In-degree of ``node``."""
        index = self.index_of(node)
        return self._in_offsets[index + 1] - self._in_offsets[index]

    def degree(self, node: NodeId) -> int:
        """Alias of :meth:`out_degree` (equal to in-degree when undirected)."""
        return self.out_degree(node)

    # ------------------------------------------------------------------
    # Pickling (the repro.parallel worker processes ship compilations)
    # ------------------------------------------------------------------
    def __reduce__(self):
        """Pickle support: ship the frozen buffers, not the source graph.

        Explicit because the default slot pickling would choke on the
        source-graph weakref.  What round-trips: directedness, node order,
        all six CSR buffers (shared out/in buffers of undirected graphs
        stay *shared* after loading — pickle memoises object identity
        within one payload), edge count, name, the compile-time
        :attr:`source_version`, the :attr:`is_transposed` marker of
        :meth:`reverse_view`\\ s, and the :meth:`content_digest` (forced
        here so receivers can verify integrity without recomputing).
        What does not: the source-graph weakref — an unpickled compilation
        reports ``source_graph`` as ``None``, and freshness checks fall
        back to node-count and version comparisons.  The node-index map is
        rebuilt on load rather than shipped (it is derivable and typically
        the payload's largest dict).

        Shared-memory mapped compilations (from
        :func:`repro.graph.shm.attach_compact_graph`) refuse to pickle:
        their buffers are views into another process's segment, and
        copying them out would silently reintroduce the per-worker private
        copy the shared mode exists to avoid.  Ship the
        :class:`~repro.graph.shm.SharedGraphHandle` instead.
        """
        if not isinstance(self._out_offsets, array):
            raise GraphValidationError(
                "cannot pickle a shared-memory mapped CompactGraph (its "
                "buffers are views into a shared segment); ship the "
                "SharedGraphHandle and attach_compact_graph() on the "
                "receiving side instead"
            )
        return (
            _rebuild_compact_graph,
            (
                self._directed,
                self._nodes,
                self._out_offsets,
                self._out_targets,
                self._out_weights,
                self._in_offsets,
                self._in_sources,
                self._in_weights,
                self._num_edges,
                self.name,
                self._source_version,
                self._transposed,
                self.content_digest(),
            ),
        )

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def reverse_view(self) -> "CompactGraph":
        """The transpose as another :class:`CompactGraph`, sharing buffers.

        The reversed view swaps the out- and in-adjacency buffer triples in
        O(1) — no copying — so backward searches (closeness centrality sums
        distances *towards* each node) run on the same array loops.
        Undirected graphs are their own transpose and are returned
        unchanged.
        """
        if not self._directed:
            return self
        return CompactGraph(
            directed=True,
            nodes=self._nodes,
            out_offsets=self._in_offsets,
            out_targets=self._in_sources,
            out_weights=self._in_weights,
            in_offsets=self._out_offsets,
            in_sources=self._out_targets,
            in_weights=self._out_weights,
            num_edges=self._num_edges,
            name=f"{self.name}^T" if self.name else "",
            source_version=self._source_version,
            index_of=self._index_of,
            source_graph=self.source_graph,
            transposed=not self._transposed,
        )

    def to_graph(self) -> Graph:
        """Decompile back into a mutable :class:`~repro.graph.Graph`."""
        graph = Graph(directed=self._directed, name=self.name)
        graph.add_nodes(self._nodes)
        graph.add_edges(self.edges())
        return graph


def _rebuild_compact_graph(
    directed,
    nodes,
    out_offsets,
    out_targets,
    out_weights,
    in_offsets,
    in_sources,
    in_weights,
    num_edges,
    name,
    source_version,
    transposed,
    digest,
):
    """Unpickle target of :meth:`CompactGraph.__reduce__` (module-level so
    :mod:`pickle` can address it by reference)."""
    graph = CompactGraph(
        directed=directed,
        nodes=nodes,
        out_offsets=out_offsets,
        out_targets=out_targets,
        out_weights=out_weights,
        in_offsets=in_offsets,
        in_sources=in_sources,
        in_weights=in_weights,
        num_edges=num_edges,
        name=name,
        source_version=source_version,
        source_graph=None,
        transposed=transposed,
    )
    graph._digest = digest
    return graph
