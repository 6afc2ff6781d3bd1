"""Lightweight span tracing with cross-process reassembly.

A :class:`Tracer` records a tree of named spans per batch — monotonic
``time.perf_counter()`` timings, parent/child nesting, small metadata
dicts — and publishes the finished tree as plain JSON-serialisable dicts
on :attr:`Tracer.last_trace`:

.. code-block:: python

    {"trace_id": "9f2c...", "root": {
        "name": "engine.query_many",
        "start_offset_s": 0.0, "duration_s": 0.0123,
        "meta": {"algorithm": "indexed", "queries": 64},
        "children": [...]}}

``start_offset_s`` is relative to the *root span of the process that
recorded it*: wall clocks and ``perf_counter`` epochs are not comparable
across processes, so worker-side spans ship durations + local offsets
only, and the parent grafts each worker's tree under its dispatch span
via :meth:`Tracer.attach`.  The one cross-process invariant worth
asserting is therefore ``worker root duration <= parent dispatch
duration`` — the batch cannot be faster than its slowest worker.

Cross-IPC propagation: the engine passes ``tracer.trace_id`` in each
worker task tuple; the worker enables its private engine's tracer for
exactly that task, roots a ``worker.shard`` span carrying the id, and
returns the finished tree in the result payload.

Disabled mode (the default) is allocation-free on the hot path: ``span``
/ ``trace`` return one shared no-op context manager, and
:attr:`Tracer.spans_created` counts real span objects so tests can
assert the zero.

Tracers are deliberately single-threaded like the engine that owns them
(one batch at a time); the registry handles concurrent metrics instead.
"""

from __future__ import annotations

import time
import uuid
from typing import Any, Dict, List, Optional

__all__ = ["Tracer", "NOOP_SPAN"]


class _NoopSpan:
    """Shared do-nothing span for disabled tracers (zero allocations)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc_value, tb) -> bool:
        return False

    def set(self, **meta: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class _SpanNode:
    __slots__ = ("name", "meta", "start", "duration", "children")

    def __init__(self, name: str, meta: Dict[str, Any]) -> None:
        self.name = name
        self.meta = meta
        self.start = time.perf_counter()
        self.duration = 0.0
        self.children: List[Any] = []  # _SpanNode or attached plain dicts

    def to_dict(self, root_start: float) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "start_offset_s": self.start - root_start,
            "duration_s": self.duration,
        }
        if self.meta:
            payload["meta"] = self.meta
        if self.children:
            payload["children"] = [
                child.to_dict(root_start)
                if isinstance(child, _SpanNode)
                else child
                for child in self.children
            ]
        return payload


class _ActiveSpan:
    __slots__ = ("_tracer", "_node")

    def __init__(self, tracer: "Tracer", node: _SpanNode) -> None:
        self._tracer = tracer
        self._node = node

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, exc_type, exc_value, tb) -> bool:
        if exc_type is not None:
            self._node.meta["error"] = exc_type.__name__
        self._tracer._finish(self._node)
        return False

    def set(self, **meta: Any) -> "_ActiveSpan":
        self._node.meta.update(meta)
        return self


class Tracer:
    """Records one span tree at a time; disabled (and free) by default."""

    __slots__ = (
        "enabled",
        "spans_created",
        "trace_id",
        "last_trace",
        "_stack",
        "_root_start",
    )

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: Real span objects ever allocated — the disabled-overhead probe.
        self.spans_created = 0
        #: Trace id of the active (or most recent) trace.
        self.trace_id: Optional[str] = None
        #: The most recent finished trace: {"trace_id": ..., "root": {...}}.
        self.last_trace: Optional[Dict[str, Any]] = None
        self._stack: List[_SpanNode] = []
        self._root_start = 0.0

    @property
    def active(self) -> bool:
        """Whether a trace is currently open (a root span is on the stack)."""
        return bool(self._stack)

    def trace(self, name: str, trace_id: Optional[str] = None, **meta: Any):
        """Open a new root span (abandoning any unfinished trace).

        ``trace_id`` propagates an id minted elsewhere (the parent process);
        ``None`` mints a fresh one.
        """
        if not self.enabled:
            return NOOP_SPAN
        self._stack = []
        self.trace_id = trace_id if trace_id else uuid.uuid4().hex[:16]
        return self._start(name, meta)

    def span(self, name: str, **meta: Any):
        """Open a child of the innermost open span; no-op outside a trace."""
        if not self.enabled or not self._stack:
            return NOOP_SPAN
        return self._start(name, meta)

    def attach(self, subtrees: List[Dict[str, Any]]) -> None:
        """Graft pre-built span dicts (a worker's tree) under the open span."""
        if self.enabled and self._stack and subtrees:
            self._stack[-1].children.extend(subtrees)

    # -- internals ------------------------------------------------------
    def _start(self, name: str, meta: Dict[str, Any]) -> _ActiveSpan:
        node = _SpanNode(name, meta)
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self._root_start = node.start
        self._stack.append(node)
        self.spans_created += 1
        return _ActiveSpan(self, node)

    def _finish(self, node: _SpanNode) -> None:
        node.duration = time.perf_counter() - node.start
        # Close any children abandoned by an exception between their
        # __enter__ and __exit__ (shouldn't happen with `with`, but a
        # wrong nesting must not corrupt the tree).
        while self._stack and self._stack[-1] is not node:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        if not self._stack:
            self.last_trace = {
                "trace_id": self.trace_id,
                "root": node.to_dict(self._root_start),
            }
