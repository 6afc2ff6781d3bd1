"""CSR delta-overlay: a frozen base compilation plus a mutation side-table.

A :class:`~repro.graph.csr.CompactGraph` is immutable by design, so before
this module *any* :class:`~repro.graph.Graph` mutation forced a full
recompile of the CSR buffers (O(|V| + |E|)) — and, transitively, nuked the
bichromatic masks, the hub index and the warmed worker pool.  For the
continuous trickle of edge insertions/deletions a real service sees, that
is the wrong trade: each update touches the adjacency of two nodes.

:class:`OverlayGraph` keeps the base buffers frozen and layers a small
**full-row side-table** over them: for every node whose adjacency changed
since the base was compiled, the overlay stores that node's *complete*
current adjacency row as a pair of parallel arrays
(``targets array('q')``, ``weights array('d')``), extracted from the
mutated source graph in its own iteration order.  Untouched nodes keep
reading the base buffers.

Full rows — not edge-level patches — are what make the overlay
*bit-identical* to a from-scratch recompile: a recompiled CSR enumerates
each node's neighbours in the source graph's dict-iteration order, and a
full row extracted from the same dict enumerates identically.  Ranks,
tie-breaking (heap order follows adjacency enumeration) and every
``QueryStats`` counter therefore match a fresh compilation exactly; the
differential fuzz suite pins this.  An edge-level patch table could not
promise that: a deleted-then-reinserted edge would move to the end of a
patched row but to its dict position in a recompile.

The traversal loops (:mod:`repro.traversal.csr_ops`,
:mod:`repro.traversal.csr_sds`) probe ``csr.overlay_out`` /
``csr.overlay_in`` — ``None`` on plain compilations, the row dicts here —
and pay one ``dict.get`` per *settled node* only when an overlay is
active.  Overlay cost is therefore proportional to how much of the graph
actually changed; once the side-table holds more than ``max(8,
base_nodes // 4)`` touched or appended nodes,
:meth:`~repro.core.engine.ReverseKRanksEngine.apply_updates` recompacts
into a fresh base and the side-table empties.

Contract
--------
* The overlay is built against a **plain, forward** base compilation —
  never against another overlay (the engine recompacts instead of
  stacking) and never against a :meth:`~repro.graph.csr.CompactGraph.
  reverse_view`.
* Node *additions* append to the node table (source-graph iteration order
  appends new nodes at the end) and always carry an overlay row; node
  *removals* cannot be represented (they renumber every index) and force
  recompaction upstream.
* Overlays refuse :mod:`pickle` and shared-memory publication: workers
  hold the same frozen base (mapped or pickled once).  A worker that
  starts receives the whole side-table (:meth:`overlay_state` /
  :meth:`from_state`); after that each update ships only the rows it
  re-extracted (:meth:`overlay_delta` / :meth:`from_delta`) over the
  pool's broadcast channel.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import GraphValidationError
from repro.graph.csr import CompactGraph
from repro.graph.graph import NodeId, Weight

__all__ = ["OverlayGraph"]

#: Side-table wire-format marker for :meth:`OverlayGraph.overlay_state`;
#: bumped when the payload layout changes so a worker can never misapply
#: a side-table written by an incompatible build.
_OVERLAY_FORMAT = "repro-overlay/1"
#: The same for :meth:`OverlayGraph.overlay_delta`.
_DELTA_FORMAT = "repro-overlay-delta/1"


def _extract_row(
    graph, node: NodeId, index_of, items: str
) -> Tuple[array, array]:
    """One node's complete adjacency row, in source-iteration order."""
    targets = array("q")
    weights = array("d")
    for neighbor, weight in getattr(graph, items)(node):
        targets.append(index_of[neighbor])
        weights.append(weight)
    return targets, weights


class OverlayGraph(CompactGraph):
    """A :class:`CompactGraph` view of a *mutated* graph over a frozen base.

    Build with :meth:`from_base` (coordinator side, from the live
    :class:`~repro.graph.Graph`) or :meth:`from_state` (worker side, from a
    broadcast side-table).  Implements the same read-only adjacency
    protocol as the base class; every accessor consults the row dicts
    first and falls back to the base buffers.
    """

    is_overlay = True

    __slots__ = ("overlay_out", "overlay_in", "_base", "_appended")

    def __init__(
        self,
        base: CompactGraph,
        nodes: List[NodeId],
        index_of: Dict[NodeId, int],
        out_rows: Dict[int, Tuple[array, array]],
        in_rows: Dict[int, Tuple[array, array]],
        num_edges: int,
        source_version: Optional[int],
        source_graph=None,
        appended: Iterable[NodeId] = (),
        transposed: bool = False,
    ) -> None:
        if base.is_overlay:
            raise GraphValidationError(
                "overlays do not stack: recompact the existing overlay into "
                "a fresh base before layering new mutations"
            )
        out_offsets, out_targets, out_weights = base.out_csr()
        in_offsets, in_sources, in_weights = base.in_csr()
        super().__init__(
            directed=base.directed,
            nodes=nodes,
            out_offsets=out_offsets,
            out_targets=out_targets,
            out_weights=out_weights,
            in_offsets=in_offsets,
            in_sources=in_sources,
            in_weights=in_weights,
            num_edges=num_edges,
            name=base.name,
            source_version=source_version,
            index_of=index_of,
            source_graph=source_graph,
            transposed=transposed,
        )
        self.overlay_out = out_rows
        self.overlay_in = in_rows
        self._base = base
        self._appended = list(appended)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_base(
        cls,
        graph,
        base: CompactGraph,
        touched: Iterable[NodeId],
        appended: Iterable[NodeId] = (),
        previous: Optional["OverlayGraph"] = None,
    ) -> "OverlayGraph":
        """Overlay the mutations of ``graph`` onto its older compilation.

        ``touched`` names every node whose adjacency changed since ``base``
        was compiled from ``graph``; ``appended`` lists nodes added since
        then, *in insertion order* (they occupy the indexes after the base
        node table).  Appended nodes are implicitly touched.  The caller —
        normally :meth:`~repro.core.engine.ReverseKRanksEngine.
        apply_updates`, which tracks both sets — must not have removed any
        node since the base compile.

        ``previous`` is an overlay of ``base`` for an earlier state of
        ``graph``; ``touched`` then names only the nodes changed since
        ``previous`` was built.  Every other row is taken from it as it
        is: node indexes do not move while the base stands, so an
        untouched node's row is the same.
        """
        if base.is_transposed:
            raise GraphValidationError(
                "cannot overlay a transposed (reverse_view) base; pass the "
                "forward compilation"
            )
        if base.directed != graph.directed:
            raise GraphValidationError(
                "overlay base and source graph disagree on directedness"
            )
        appended = list(appended)
        base_nodes = base.node_ids
        if graph.num_nodes != len(base_nodes) + len(appended):
            raise GraphValidationError(
                "overlay node accounting is inconsistent: base has "
                f"{len(base_nodes)} nodes + {len(appended)} appended, but "
                f"the graph has {graph.num_nodes} (node removal requires "
                "recompaction)"
            )
        if appended:
            nodes = list(base_nodes) + appended
            index_of = {node: index for index, node in enumerate(nodes)}
        else:
            nodes = base_nodes
            index_of = base._index_of

        touched_nodes = set(touched)
        out_rows: Dict[int, Tuple[array, array]] = {}
        in_rows: Dict[int, Tuple[array, array]] = {}
        if previous is None:
            touched_nodes.update(appended)
        else:
            if previous.base is not base:
                raise GraphValidationError(
                    "the previous overlay was built over a different base"
                )
            touched_nodes.update(appended[len(previous.appended_nodes):])
            out_rows.update(previous.overlay_out)
            if graph.directed:
                in_rows.update(previous.overlay_in)
        for node in touched_nodes:
            out_rows[index_of[node]] = _extract_row(
                graph, node, index_of, "neighbor_items"
            )
        if graph.directed:
            for node in touched_nodes:
                in_rows[index_of[node]] = _extract_row(
                    graph, node, index_of, "in_neighbor_items"
                )
        else:
            in_rows = out_rows

        return cls(
            base=base,
            nodes=nodes,
            index_of=index_of,
            out_rows=out_rows,
            in_rows=in_rows,
            num_edges=graph.num_edges,
            source_version=getattr(graph, "version", None),
            source_graph=graph,
            appended=appended,
        )

    # ------------------------------------------------------------------
    # Side-table transport (worker broadcast)
    # ------------------------------------------------------------------
    def overlay_state(self) -> Dict[str, object]:
        """The picklable side-table a worker needs to mirror this overlay.

        Rows are keyed by dense node index and carry ``array`` buffers, so
        the payload stays proportional to the mutation set, not the graph.
        The base digest pins the payload to one exact base compilation:
        :meth:`from_state` refuses a side-table built over different
        buffers.
        """
        return {
            "format": _OVERLAY_FORMAT,
            "base_digest": self._base.content_digest(),
            "directed": self.directed,
            "version": self.source_version,
            "num_edges": self.num_edges,
            "appended": list(self._appended),
            "out_rows": self.overlay_out,
            "in_rows": (
                None if self.overlay_in is self.overlay_out else self.overlay_in
            ),
        }

    def overlay_delta(self, shipped: CompactGraph) -> Dict[str, object]:
        """What a holder of ``shipped`` lacks to mirror this overlay.

        ``shipped`` is this overlay's base or an earlier overlay of it:
        the graph a pool last shipped to its workers.  Rows never leave
        an overlay while its base stands, and :meth:`from_base` with
        ``previous=`` takes every row a batch did not touch from the
        previous overlay as the same object; so the rows that are not
        ``shipped``'s own objects are the ones re-extracted since.  The
        delta holds those rows, the nodes appended since, and the
        version it applies on; :meth:`from_delta` rebuilds this overlay
        from it.  A row extracted twice with equal contents only makes
        the delta larger, never wrong.
        """
        if shipped.is_overlay:
            base = shipped.base
            shipped_out, shipped_in = shipped.overlay_out, shipped.overlay_in
            appended_before = len(shipped.appended_nodes)
        else:
            base = shipped
            shipped_out = shipped_in = {}
            appended_before = 0
        if base.content_digest() != self._base.content_digest():
            raise GraphValidationError(
                "cannot cut an overlay delta against a graph over a "
                "different base compilation"
            )

        def fresh(rows, held):
            return {
                index: row
                for index, row in rows.items()
                if held.get(index) is not row
            }

        return {
            "format": _DELTA_FORMAT,
            "on_version": shipped.source_version,
            "version": self.source_version,
            "num_edges": self.num_edges,
            "appended": self._appended[appended_before:],
            "out_rows": fresh(self.overlay_out, shipped_out),
            "in_rows": (
                None
                if self.overlay_in is self.overlay_out
                else fresh(self.overlay_in, shipped_in)
            ),
        }

    @classmethod
    def from_delta(
        cls, current: CompactGraph, delta: Dict[str, object]
    ) -> "OverlayGraph":
        """Apply an :meth:`overlay_delta` to ``current``, the graph it was cut
        against: a worker's base compilation or its overlay of that base.

        Every row the delta does not carry is ``current``'s own, as
        :meth:`from_base` takes untouched rows from ``previous``, so the
        result is one overlay over the base, never a stack.

        Raises
        ------
        GraphValidationError
            On an unrecognised payload, or when ``current`` is not at the
            graph version the delta applies on.
        """
        if not isinstance(delta, dict) or delta.get("format") != _DELTA_FORMAT:
            raise GraphValidationError(
                f"unrecognised overlay delta payload: "
                f"{delta.get('format') if isinstance(delta, dict) else delta!r}"
            )
        if delta["on_version"] != current.source_version:
            raise GraphValidationError(
                f"overlay delta applies on graph version "
                f"{delta['on_version']}, but this graph is at version "
                f"{current.source_version}; refusing to apply"
            )
        if current.is_overlay:
            base = current.base
            out_rows = dict(current.overlay_out)
            in_rows = current.overlay_in
            appended = current.appended_nodes
        else:
            base = current
            out_rows, in_rows = {}, {}
            appended = []
        out_rows.update(delta["out_rows"])
        if delta["in_rows"] is None:
            in_rows = out_rows
        else:
            in_rows = dict(in_rows)
            in_rows.update(delta["in_rows"])
        if delta["appended"]:
            appended = appended + list(delta["appended"])
            nodes = list(base.node_ids) + appended
            index_of = {node: index for index, node in enumerate(nodes)}
        else:
            nodes, index_of = current.node_ids, current._index_of
        return cls(
            base=base,
            nodes=nodes,
            index_of=index_of,
            out_rows=out_rows,
            in_rows=in_rows,
            num_edges=int(delta["num_edges"]),
            source_version=delta["version"],
            source_graph=None,
            appended=appended,
        )

    @classmethod
    def from_state(
        cls, base: CompactGraph, state: Dict[str, object]
    ) -> "OverlayGraph":
        """Rebuild the overlay a coordinator broadcast, over a local base.

        ``base`` is the worker's own copy of the frozen base compilation
        (shared-memory mapped or unpickled at startup); it must digest
        equal to the coordinator's, which guarantees identical node
        indexing and therefore a bit-identical overlay.
        """
        if not isinstance(state, dict) or state.get("format") != _OVERLAY_FORMAT:
            raise GraphValidationError(
                f"unrecognised overlay side-table payload: "
                f"{state.get('format') if isinstance(state, dict) else state!r}"
            )
        if state["base_digest"] != base.content_digest():
            raise GraphValidationError(
                "overlay side-table was built over a different base "
                "compilation (content digest mismatch); refusing to apply"
            )
        if bool(state["directed"]) != base.directed:
            raise GraphValidationError(
                "overlay side-table directedness does not match the base"
            )
        appended = list(state["appended"])
        base_nodes = base.node_ids
        if appended:
            nodes = list(base_nodes) + appended
            index_of = {node: index for index, node in enumerate(nodes)}
        else:
            nodes = base_nodes
            index_of = base._index_of
        out_rows = dict(state["out_rows"])
        in_rows = state["in_rows"]
        in_rows = out_rows if in_rows is None else dict(in_rows)
        return cls(
            base=base,
            nodes=nodes,
            index_of=index_of,
            out_rows=out_rows,
            in_rows=in_rows,
            num_edges=int(state["num_edges"]),
            source_version=state["version"],
            source_graph=None,
            appended=appended,
        )

    # ------------------------------------------------------------------
    # Overlay introspection
    # ------------------------------------------------------------------
    @property
    def base(self) -> CompactGraph:
        """The frozen base compilation the side-table patches."""
        return self._base

    @property
    def overlay_rows(self) -> int:
        """How many node rows the side-table holds (the recompaction size)."""
        count = len(self.overlay_out)
        if self.overlay_in is not self.overlay_out:
            count = max(count, len(self.overlay_in))
        return count

    @property
    def appended_nodes(self) -> List[NodeId]:
        """Nodes added since the base compile, in index order (do not mutate)."""
        return self._appended

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "directed" if self.directed else "undirected"
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<OverlayGraph{label} {kind} nodes={self.num_nodes} "
            f"edges={self.num_edges} overlay_rows={self.overlay_rows}>"
        )

    @property
    def has_zero_weight(self) -> bool:
        """Whether the base or an overlay row holds a zero-weight edge.

        A zero-weight base edge that an overlay row replaced still
        counts: conservative, and exact again after recompaction.
        """
        if self._zero_weight is None:
            self._zero_weight = self._base.has_zero_weight or any(
                0.0 in weights for _, weights in self.overlay_out.values()
            )
        return self._zero_weight

    @property
    def max_weight(self) -> float:
        """The larger of the base's and the overlay rows' heaviest edge.

        Like :attr:`has_zero_weight`, a base edge an overlay row replaced
        still counts: a bound, exact again after recompaction.
        """
        if self._max_weight is None:
            heaviest = self._base.max_weight
            for _, weights in self.overlay_out.values():
                heaviest = max(heaviest, max(weights, default=0.0))
            self._max_weight = heaviest
        return self._max_weight

    # ------------------------------------------------------------------
    # Content digest / pickling
    # ------------------------------------------------------------------
    def content_digest(self) -> str:
        """Digest of the base digest plus the side-table.

        Self-consistent (two identical overlays digest equal) but **not**
        comparable to a from-scratch compilation's digest — the bytes are
        laid out differently even though traversal is identical.  Nothing
        transports overlays by digest: workers verify the *base* digest
        and rebuild the side-table deterministically.
        """
        if self._digest is None:
            digest = hashlib.sha256()
            digest.update(f"{_OVERLAY_FORMAT}|".encode())
            digest.update(self._base.content_digest().encode())
            digest.update(
                f"|{self._num_edges}|{self._source_version}|"
                f"{len(self._nodes)}|".encode()
            )
            for node in self._appended:
                digest.update(repr(node).encode())
                digest.update(b";")
            for row_dict in (self.overlay_out, self.overlay_in):
                for index in sorted(row_dict):
                    targets, weights = row_dict[index]
                    digest.update(str(index).encode())
                    digest.update(targets.tobytes())
                    digest.update(weights.tobytes())
                digest.update(b"#")
                if self.overlay_in is self.overlay_out:
                    break
            self._digest = digest.hexdigest()
        return self._digest

    def __reduce__(self):
        raise GraphValidationError(
            "cannot pickle an OverlayGraph: workers already hold the frozen "
            "base; broadcast overlay_state() and rebuild with "
            "OverlayGraph.from_state() on the receiving side"
        )

    # ------------------------------------------------------------------
    # Read-only adjacency protocol (row-aware overrides)
    # ------------------------------------------------------------------
    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        source_index = self.index_of(source)
        target_index = self.index_of(target)
        row = self.overlay_out.get(source_index)
        if row is not None:
            return target_index in row[0]
        offsets, targets, _ = (
            self._out_offsets,
            self._out_targets,
            self._out_weights,
        )
        for position in range(offsets[source_index], offsets[source_index + 1]):
            if targets[position] == target_index:
                return True
        return False

    def weight(self, source: NodeId, target: NodeId) -> Weight:
        from repro.errors import EdgeNotFoundError

        source_index = self.index_of(source)
        target_index = self.index_of(target)
        row = self.overlay_out.get(source_index)
        if row is not None:
            targets, weights = row
            for position in range(len(targets)):
                if targets[position] == target_index:
                    return weights[position]
            raise EdgeNotFoundError(source, target)
        offsets, targets, weights = (
            self._out_offsets,
            self._out_targets,
            self._out_weights,
        )
        for position in range(offsets[source_index], offsets[source_index + 1]):
            if targets[position] == target_index:
                return weights[position]
        raise EdgeNotFoundError(source, target)

    def _out_span(self, index: int):
        """``(targets, weights, start, stop)`` for one node's out-row."""
        row = self.overlay_out.get(index)
        if row is not None:
            targets, weights = row
            return targets, weights, 0, len(targets)
        offsets = self._out_offsets
        return (
            self._out_targets,
            self._out_weights,
            offsets[index],
            offsets[index + 1],
        )

    def _in_span(self, index: int):
        """``(sources, weights, start, stop)`` for one node's in-row."""
        row = self.overlay_in.get(index)
        if row is not None:
            sources, weights = row
            return sources, weights, 0, len(sources)
        offsets = self._in_offsets
        return (
            self._in_sources,
            self._in_weights,
            offsets[index],
            offsets[index + 1],
        )

    def edges(self) -> Iterator[Tuple[NodeId, NodeId, Weight]]:
        nodes = self._nodes
        for source_index, source in enumerate(nodes):
            targets, weights, start, stop = self._out_span(source_index)
            for position in range(start, stop):
                target_index = targets[position]
                if not self._directed and target_index < source_index:
                    continue
                yield source, nodes[target_index], weights[position]

    def neighbor_items(self, node: NodeId) -> Iterator[Tuple[NodeId, Weight]]:
        index = self.index_of(node)
        targets, weights, start, stop = self._out_span(index)
        nodes = self._nodes
        for position in range(start, stop):
            yield nodes[targets[position]], weights[position]

    def neighbors(self, node: NodeId) -> Iterator[NodeId]:
        index = self.index_of(node)
        targets, _, start, stop = self._out_span(index)
        nodes = self._nodes
        for position in range(start, stop):
            yield nodes[targets[position]]

    def in_neighbor_items(self, node: NodeId) -> Iterator[Tuple[NodeId, Weight]]:
        index = self.index_of(node)
        sources, weights, start, stop = self._in_span(index)
        nodes = self._nodes
        for position in range(start, stop):
            yield nodes[sources[position]], weights[position]

    def in_neighbors(self, node: NodeId) -> Iterator[NodeId]:
        index = self.index_of(node)
        sources, _, start, stop = self._in_span(index)
        nodes = self._nodes
        for position in range(start, stop):
            yield nodes[sources[position]]

    def out_degree(self, node: NodeId) -> int:
        index = self.index_of(node)
        row = self.overlay_out.get(index)
        if row is not None:
            return len(row[0])
        return self._out_offsets[index + 1] - self._out_offsets[index]

    def in_degree(self, node: NodeId) -> int:
        index = self.index_of(node)
        row = self.overlay_in.get(index)
        if row is not None:
            return len(row[0])
        return self._in_offsets[index + 1] - self._in_offsets[index]

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def reverse_view(self) -> "CompactGraph":
        """The transpose, swapping both the base triples and the row dicts."""
        if not self._directed:
            return self
        return OverlayGraph(
            base=self._base.reverse_view(),
            nodes=self._nodes,
            index_of=self._index_of,
            out_rows=self.overlay_in,
            in_rows=self.overlay_out,
            num_edges=self._num_edges,
            source_version=self._source_version,
            source_graph=self.source_graph,
            appended=self._appended,
            transposed=not self._transposed,
        )
