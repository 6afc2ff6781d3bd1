"""Zero-copy shared-memory transport for :class:`~repro.graph.csr.CompactGraph`.

At huge scale (n in the 10\\ :sup:`5`–10\\ :sup:`6` range) the dominant
multiprocess tax is no longer per-query IPC but the per-worker *pickled
copy* of the frozen CSR buffers: every worker process unpickles its own
offsets/targets/weights arrays, multiplying RSS by the worker count and
stretching startup with megabytes of queue traffic.  This module removes
both costs by publishing the compilation once into a
:class:`multiprocessing.shared_memory.SharedMemory` segment and letting
workers *map* it:

* :func:`share_compact_graph` (owner side) lays the six CSR buffers out in
  one segment behind a small pickled header and returns a
  :class:`SharedGraphHandle` — a few hundred bytes of name + layout +
  content digest, which is all that ever crosses a process boundary;
* :func:`attach_compact_graph` (worker side) maps the segment and rebuilds
  a :class:`~repro.graph.csr.CompactGraph` whose buffers are
  ``memoryview`` casts **into the mapped pages** — no copy, O(1) extra RSS
  per worker — after recomputing the content digest over the mapped bytes
  and comparing it against the handle (a corrupted or foreign segment
  fails loudly before any query touches it).

Node identifiers get the same treatment where possible: when they are
exactly ``0..n-1`` (the huge-lattice and SNAP/DIMACS integer case) the
attached graph uses a virtual ``range`` plus an identity index map, so
even the node table costs O(1) per worker.  Arbitrary hashable
identifiers fall back to a pickled node list inside the segment — each
worker then materialises the id list and index dict (O(n) small objects),
but the adjacency/weight buffers, which dominate at scale, stay mapped.

Lifecycle contract
------------------
The *owner* (the process that called :func:`share_compact_graph`) must
call :meth:`SharedGraphOwner.unlink` on every exit path — the segment is
a kernel object and outlives the process otherwise.
:class:`~repro.parallel.pool.WorkerPool` does this from ``close()``
(normal shutdown, worker crash, context-manager exception and the
``__del__`` safety net alike).  Attachers hold their mapping for the
lifetime of the rebuilt graph; the segment disappears once the owner has
unlinked it and the last mapping is gone.  Attachments are excluded from
the :mod:`multiprocessing` resource tracker so a worker exiting can never
unlink a segment the owner still serves from.
"""

from __future__ import annotations

import hashlib
import pickle
import secrets
import struct
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional, Tuple

from repro.errors import GraphValidationError
from repro.graph.csr import CompactGraph

__all__ = [
    "SharedGraphHandle",
    "SharedGraphOwner",
    "share_compact_graph",
    "attach_compact_graph",
]

#: Shared-segment format marker; bumped when the layout changes so an
#: attacher can never misread a segment written by an incompatible build.
_SHM_FORMAT = "repro-shm-csr/1"

#: Segment names are prefixed so tests (and the CI leak gate) can tell the
#: package's segments apart from anything else in /dev/shm.
_SEGMENT_PREFIX = "repro_shm_"

#: Fixed-size prelude: the byte length of the pickled header that follows.
_PRELUDE = struct.Struct("<Q")


@dataclass(frozen=True)
class SharedGraphHandle:
    """The picklable ticket a worker needs to map a shared compilation.

    Deliberately tiny — segment name, total size and the expected content
    digest — so the worker startup payload shrinks from the full CSR
    buffers to this header no matter how large the graph is.
    """

    segment_name: str
    total_bytes: int
    digest: str


class SharedGraphOwner:
    """Owner-side wrapper around the published segment.

    Keeps the :class:`~multiprocessing.shared_memory.SharedMemory` object
    alive (closing it would invalidate the parent's own attachment) and
    provides the idempotent :meth:`unlink` every pool exit path calls.
    """

    def __init__(self, segment: shared_memory.SharedMemory, handle: SharedGraphHandle) -> None:
        self._segment: Optional[shared_memory.SharedMemory] = segment
        self.handle = handle

    @property
    def segment_name(self) -> str:
        """The shared segment's name (``/dev/shm`` entry on Linux)."""
        return self.handle.segment_name

    def unlink(self) -> None:
        """Close and unlink the segment.  Idempotent; never raises.

        Called from every :class:`~repro.parallel.pool.WorkerPool` exit
        path including interpreter-shutdown ``__del__``, where modules may
        already be torn down — hence the broad exception guard.
        """
        segment = self._segment
        if segment is None:
            return
        self._segment = None
        try:
            segment.close()
        except Exception:
            pass
        try:
            segment.unlink()
        except Exception:
            pass

    def __del__(self):  # pragma: no cover - GC safety net
        self.unlink()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to ``name`` without registering with the resource tracker.

    Python < 3.13 registers *attachments* with the resource tracker too,
    which makes a worker's tracker unlink the segment when the worker
    exits — yanking the graph out from under its siblings (bpo-39959).
    3.13 grew ``track=False`` for exactly this; on older interpreters the
    registration is suppressed for the duration of the attach.
    Suppression beats attach-then-``unregister``: the tracker's cache is a
    *set* shared (under ``fork``) by parent and children, so a second
    attacher's unregister would evict the owner's legitimate registration
    and every later unregister would stderr-spam ``KeyError`` from the
    tracker process.  Single-threaded contexts only (worker startup,
    tests) — the patch window is not thread-safe.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = original_register


class _RangeIndex:
    """Identity node→index map for graphs whose node ids are ``0..n-1``.

    Duck-types the two dict operations :class:`CompactGraph` performs on
    its index map (``[]`` and ``in``) in O(1) memory, so an attached
    huge graph costs no per-worker node table at all.
    """

    __slots__ = ("_num_nodes",)

    def __init__(self, num_nodes: int) -> None:
        self._num_nodes = num_nodes

    def __getitem__(self, node) -> int:
        if (
            isinstance(node, int)
            and not isinstance(node, bool)
            and 0 <= node < self._num_nodes
        ):
            return node
        raise KeyError(node)

    def __contains__(self, node) -> bool:
        return (
            isinstance(node, int)
            and not isinstance(node, bool)
            and 0 <= node < self._num_nodes
        )

    def __len__(self) -> int:
        return self._num_nodes


def _nodes_are_range(nodes) -> bool:
    """Whether the node identifiers are exactly ``0, 1, ..., n-1``."""
    return all(
        isinstance(node, int) and not isinstance(node, bool) and node == position
        for position, node in enumerate(nodes)
    )


def share_compact_graph(graph: CompactGraph) -> SharedGraphOwner:
    """Publish ``graph``'s frozen buffers into one shared-memory segment.

    Layout: an 8-byte little-endian prelude (pickled-header length), the
    pickled header (format marker, graph metadata, node encoding, buffer
    table), then the raw buffer bytes back to back.  Undirected graphs
    share their out/in buffer triples; the header records that so the
    attached graph shares them too instead of mapping the bytes twice.

    Raises
    ------
    GraphValidationError
        When ``graph`` is not a :class:`CompactGraph` compilation (the
        layout is defined over its frozen buffers only).
    """
    if not getattr(graph, "is_compact", False):
        raise GraphValidationError(
            "share_compact_graph requires a CompactGraph compilation; "
            "compile with CompactGraph.from_graph() first"
        )
    if getattr(graph, "is_overlay", False):
        raise GraphValidationError(
            "cannot share an OverlayGraph: publish the frozen base "
            "compilation and ship overlay_delta() to workers instead"
        )
    out_offsets, out_targets, out_weights = graph.out_csr()
    in_offsets, in_sources, in_weights = graph.in_csr()
    shares_buffers = in_offsets is out_offsets
    buffers = [
        ("out_offsets", "q", out_offsets),
        ("out_targets", "q", out_targets),
        ("out_weights", "d", out_weights),
    ]
    if not shares_buffers:
        buffers += [
            ("in_offsets", "q", in_offsets),
            ("in_sources", "q", in_sources),
            ("in_weights", "d", in_weights),
        ]

    nodes = graph.node_ids
    if _nodes_are_range(nodes):
        node_encoding: Tuple = ("range", graph.num_nodes)
        node_bytes = b""
    else:
        node_bytes = pickle.dumps(list(nodes), protocol=pickle.HIGHEST_PROTOCOL)
        node_encoding = ("pickle", len(node_bytes))

    raw = [bytes(memoryview(buffer).cast("B")) for _, _, buffer in buffers]
    table = []
    offset = 0
    for (key, typecode, _), blob in zip(buffers, raw):
        table.append((key, typecode, offset, len(blob)))
        offset += len(blob)
    body_bytes = offset + len(node_bytes)

    header = pickle.dumps(
        {
            "format": _SHM_FORMAT,
            "directed": graph.directed,
            "name": graph.name,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "source_version": graph.source_version,
            "shares_buffers": shares_buffers,
            "node_encoding": node_encoding,
            "buffers": table,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    total = _PRELUDE.size + len(header) + body_bytes
    segment = shared_memory.SharedMemory(
        name=f"{_SEGMENT_PREFIX}{secrets.token_hex(8)}",
        create=True,
        # SharedMemory refuses size=0; keep a 1-byte floor for the
        # degenerate empty-graph case.
        size=max(1, total),
    )
    try:
        view = segment.buf
        view[: _PRELUDE.size] = _PRELUDE.pack(len(header))
        cursor = _PRELUDE.size
        view[cursor : cursor + len(header)] = header
        cursor += len(header)
        for blob in raw:
            view[cursor : cursor + len(blob)] = blob
            cursor += len(blob)
        if node_bytes:
            view[cursor : cursor + len(node_bytes)] = node_bytes
        handle = SharedGraphHandle(
            segment_name=segment.name,
            total_bytes=total,
            digest=graph.content_digest(),
        )
        return SharedGraphOwner(segment, handle)
    except BaseException:
        segment.close()
        try:
            segment.unlink()
        except OSError:  # pragma: no cover - already gone
            pass
        raise


def attach_compact_graph(
    handle: SharedGraphHandle,
) -> Tuple[CompactGraph, shared_memory.SharedMemory]:
    """Map the segment behind ``handle`` and rebuild the compilation.

    Returns ``(graph, segment)``; the caller must keep ``segment``
    referenced for as long as the graph is in use (the graph's buffers
    are views into its pages) and should simply drop both on exit —
    attachments are untracked, so no cleanup beyond process exit is
    needed on the worker side.

    Raises
    ------
    GraphValidationError
        When the segment does not carry this module's layout, is shorter
        than the handle promises (truncated publish), or the content
        digest recomputed over the mapped bytes does not match the
        handle — a corrupted or foreign segment must fail before any
        query runs on it.
    FileNotFoundError
        When the segment has already been unlinked (e.g. attaching after
        the owning pool closed).
    """
    segment = _attach_untracked(handle.segment_name)
    try:
        view = memoryview(segment.buf)
        if len(view) < handle.total_bytes or handle.total_bytes < _PRELUDE.size:
            raise GraphValidationError(
                f"shared graph segment {handle.segment_name!r} is truncated: "
                f"{len(view)} bytes mapped, {handle.total_bytes} promised"
            )
        (header_length,) = _PRELUDE.unpack(view[: _PRELUDE.size].tobytes())
        cursor = _PRELUDE.size
        if cursor + header_length > handle.total_bytes:
            raise GraphValidationError(
                f"shared graph segment {handle.segment_name!r} header overruns "
                "the segment; refusing to unpickle"
            )
        header = pickle.loads(view[cursor : cursor + header_length].tobytes())
        if not isinstance(header, dict) or header.get("format") != _SHM_FORMAT:
            raise GraphValidationError(
                f"shared segment {handle.segment_name!r} does not carry a "
                f"{_SHM_FORMAT} graph layout"
            )
        cursor += header_length

        extents = {}
        for key, typecode, offset, length in header["buffers"]:
            start = cursor + offset
            if start + length > handle.total_bytes:
                raise GraphValidationError(
                    f"shared graph buffer {key!r} overruns segment "
                    f"{handle.segment_name!r}; refusing to attach"
                )
            extents[key] = (typecode, start, length)
        body_end = cursor + sum(length for _, _, _, length in header["buffers"])

        encoding = header["node_encoding"]
        num_nodes = header["num_nodes"]
        if encoding[0] == "range":
            nodes = range(num_nodes)
            index_of = _RangeIndex(num_nodes)
        elif encoding[0] == "pickle":
            node_bytes = view[body_end : body_end + encoding[1]].tobytes()
            nodes = pickle.loads(node_bytes)
            index_of = {node: position for position, node in enumerate(nodes)}
        else:  # pragma: no cover - format invariant
            raise GraphValidationError(
                f"unknown node encoding {encoding[0]!r} in shared segment "
                f"{handle.segment_name!r}"
            )

        # Verify the digest over the raw mapped bytes BEFORE exporting any
        # long-lived cast views: a failed attach must leave no exported
        # pointers so the mapping closes cleanly.  This recomputes exactly
        # what CompactGraph.content_digest() would over the same content.
        check = hashlib.sha256()
        check.update(
            f"{int(header['directed'])}|{num_nodes}|{header['num_edges']}".encode()
        )
        for node in nodes:
            check.update(repr(node).encode())
            check.update(b";")
        for key in ("out_offsets", "out_targets", "out_weights"):
            _, start, length = extents[key]
            check.update(view[start : start + length].tobytes())
        digest = check.hexdigest()
        if digest != handle.digest:
            raise GraphValidationError(
                "shared graph attach failed the digest check: mapped content "
                f"digests to {digest}, handle expects {handle.digest} — the "
                "segment is corrupted or belongs to a different graph"
            )

        views = {
            key: view[start : start + length].cast(typecode)
            for key, (typecode, start, length) in extents.items()
        }
        if header["shares_buffers"]:
            views["in_offsets"] = views["out_offsets"]
            views["in_sources"] = views["out_targets"]
            views["in_weights"] = views["out_weights"]

        graph = CompactGraph(
            directed=header["directed"],
            nodes=nodes,
            out_offsets=views["out_offsets"],
            out_targets=views["out_targets"],
            out_weights=views["out_weights"],
            in_offsets=views["in_offsets"],
            in_sources=views["in_sources"],
            in_weights=views["in_weights"],
            num_edges=header["num_edges"],
            name=header["name"],
            source_version=header["source_version"],
            index_of=index_of,
            source_graph=None,
        )
        graph._digest = digest
        return graph, segment
    except BaseException:
        # A failed attach must not leave a dangling mapping; every failure
        # above happens before cast views are exported, so close() cannot
        # hit "exported pointers exist".
        view = None
        try:
            segment.close()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
        raise
