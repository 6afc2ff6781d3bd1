"""Spans recorded from the benchmark's own files, around the program's calls.

Nothing inside ``src/`` is changed: :func:`install` replaces the public
methods and functions listed in ``_TRACED`` (and, for the server, the
protocol and batcher hooks in :func:`install_serve`) with wrappers that
record a span each time one is called while the recorder's gate is open.

A span is ``(id, parent id, name, start, end, request id)``.  The parent
is the innermost span open on the same thread, so a layer's self time is
its span's duration minus that of its children.  Spans stay in memory
and are written out when the run ends.  Forked pool workers inherit the
wrappers but never record: spans belong to the process that installed
them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: (module, class or None for a module function, attribute, span name)
_TRACED = [
    ("repro.core.engine", "ReverseKRanksEngine", "query_many", "core.query_many"),
    ("repro.core.engine", "ReverseKRanksEngine", "build_index", "core.index.build"),
    ("repro.core.engine", "ReverseKRanksEngine", "prepare_parallel", "parallel.pool_start"),
    ("repro.core.hub_index", "HubIndex", "known_reverse_ranks", "core.index.seed"),
    ("repro.core.hub_index", "HubIndex", "repair", "core.index.repair"),
    ("repro.core.hub_index", "HubIndex", "merge_delta", "core.index.merge"),
    ("repro.traversal.csr_sds", "CompactSDSTreeSearch", "traverse", "traversal.sds"),
    ("repro.parallel.pool", "WorkerPool", "run_batch", "parallel.run_batch"),
    ("repro.parallel.pool", "WorkerPool", "update_graph", "parallel.graph_sync"),
    ("repro.parallel.codec", "ShardResultCodec", "decode", "parallel.decode"),
    ("repro.graph.csr", "CompactGraph", "from_graph", "graph.csr_compile"),
    ("repro.graph.overlay", "OverlayGraph", "from_base", "graph.overlay"),
    # The serve CLI loads --dataset files through this module's import.
    ("repro.bench.workloads", None, "load_dataset", "graph.load"),
    ("repro.serve.journal", "DurableIndexStore", "record", "serve.journal.record"),
    ("repro.serve.journal", "DurableIndexStore", "maybe_compact", "serve.journal.maybe_compact"),
]

#: QueryStats counters summed per traced query.
STAT_FIELDS = (
    "elapsed_seconds",
    "rank_refinements",
    "refinement_nodes_settled",
    "tree_pops",
    "pruned_by_bound",
    "answered_by_index",
)


class Recorder:
    """In-memory span store with an on/off gate."""

    def __init__(self, gate: Callable[[], bool]) -> None:
        self.gate = gate
        self.spans: List[tuple] = []
        #: Summed QueryStats counters of traced queries, plus "queries".
        self.stats: Dict[str, float] = defaultdict(float)
        #: request id -> id of the serve.batch span that answered it.
        self.carried_by: Dict[object, int] = {}
        #: Per traced pool batch: (worker.shard durations, dispatch wall).
        self.shards: List[tuple] = []
        self.local = threading.local()
        self._pid = os.getpid()
        self._ids = itertools.count(1)

    def on(self) -> bool:
        return os.getpid() == self._pid and self.gate()

    def new_id(self) -> int:
        return next(self._ids)

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, on_enter=None):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        sid = self.new_id()
        parent = stack[-1] if stack else 0
        if on_enter is not None:
            on_enter(sid)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent, name, start, end, getattr(self.local, "rid", None))
            )

    def traced(self, fn, name: str):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.on():
                return fn(*args, **kwargs)
            return recorder.call(name, fn, args, kwargs)

        return wrapper

    def add_stats(self, stats, queries: int) -> None:
        if not stats:
            return
        self.stats["queries"] += queries
        for field in STAT_FIELDS:
            self.stats[field] += getattr(stats, field)

    def add_trace(self, trace: Optional[dict]) -> None:
        """Keep the worker.shard durations of one engine batch trace."""
        if not trace:
            return
        shards: List[float] = []
        dispatch = [0.0]

        def walk(span: dict) -> None:
            if span.get("name") == "worker.shard":
                shards.append(float(span.get("duration_s", 0.0)))
                return
            if span.get("name") == "engine.pool_dispatch":
                dispatch[0] += float(span.get("duration_s", 0.0))
            for child in span.get("children", ()):
                walk(child)

        walk(trace["root"])
        if shards:
            self.shards.append((shards, dispatch[0]))

    def dump(self, path) -> None:
        payload = {
            "spans": self.spans,
            "stats": dict(self.stats),
            "carried_by": [[rid, sid] for rid, sid in self.carried_by.items()],
            "shards": self.shards,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    def load(self, path) -> None:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        self.spans = [tuple(span) for span in payload["spans"]]
        self.stats = defaultdict(float, payload["stats"])
        self.carried_by = {rid: sid for rid, sid in payload["carried_by"]}
        self.shards = [tuple(entry) for entry in payload["shards"]]


def _patch(owner, attribute: str, make) -> None:
    raw = owner.__dict__[attribute]
    if isinstance(raw, (staticmethod, classmethod)):
        setattr(owner, attribute, type(raw)(make(raw.__func__)))
    else:
        setattr(owner, attribute, make(raw))


def install(recorder: Recorder) -> None:
    """Wrap every call in ``_TRACED``."""
    for module_name, class_name, attribute, name in _TRACED:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        _patch(owner, attribute, lambda fn, name=name: recorder.traced(fn, name))


def install_serve(recorder: Recorder) -> None:
    """Server-side hooks on top of :func:`install`.

    * ``serve.request``: from ``recv_message`` returning a query to the
      start of ``send_message`` for its response (residence); the
      request id travels in the message's ``rid`` field, which the
      server ignores.
    * ``serve.protocol.send``: the response's ``send_message``.
    * ``serve.batch``: one batcher flush; ``carried_by`` maps each
      request id to the flush that answered it.
    * per-query QueryStats, summed from each ``SDSTreeSearch.run``.
    """
    import repro.serve.server as server
    from repro.core.framework import SDSTreeSearch

    local = recorder.local
    pending: Dict[int, object] = {}

    def make_recv(fn):
        @functools.wraps(fn)
        def recv_message(sock):
            message = fn(sock)
            if message is not None and message.get("op") == "query" and recorder.on():
                local.rid = message.get("rid")
                local.request = (time.perf_counter(), local.rid)
            return message

        return recv_message

    def make_send(fn):
        @functools.wraps(fn)
        def send_message(sock, message):
            request = getattr(local, "request", None)
            if request is None:
                return fn(sock, message)
            local.request = None
            start = time.perf_counter()
            recorder.spans.append(
                (recorder.new_id(), 0, "serve.request", request[0], start, request[1])
            )
            try:
                return fn(sock, message)
            finally:
                recorder.spans.append(
                    (recorder.new_id(), 0, "serve.protocol.send", start,
                     time.perf_counter(), request[1])
                )
                local.rid = None

        return send_message

    def make_submit(fn):
        @functools.wraps(fn)
        def submit(self, request):
            rid = getattr(local, "rid", None)
            if rid is None:
                pending.pop(id(request), None)
            else:
                pending[id(request)] = rid
            return fn(self, request)

        return submit

    def make_execute(fn):
        @functools.wraps(fn)
        def _execute(self, batch):
            if not recorder.on():
                return fn(self, batch)

            def carried(sid: int) -> None:
                for request in batch:
                    rid = pending.pop(id(request), None)
                    if rid is not None:
                        recorder.carried_by[rid] = sid

            return recorder.call("serve.batch", fn, (self, batch), {}, carried)

        return _execute

    def make_run(fn):
        @functools.wraps(fn)
        def run(self):
            result = fn(self)
            if recorder.on():
                recorder.add_stats(result.stats, 1)
            return result

        return run

    _patch(server, "recv_message", make_recv)
    _patch(server, "send_message", make_send)
    _patch(server._Batcher, "submit", make_submit)
    _patch(server._Batcher, "_execute", make_execute)
    _patch(SDSTreeSearch, "run", make_run)
