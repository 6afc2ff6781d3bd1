"""The always-on reverse k-ranks query server.

One resident :class:`~repro.core.engine.ReverseKRanksEngine` (with its
warm hub index and, optionally, its persistent worker pool) answers
queries from many concurrent clients.  Two ideas carry the design:

* **Batch coalescing.**  Per-connection handler threads never touch the
  engine; they enqueue admitted requests with a single :class:`_Batcher`
  thread, which drains whenever it is free: a batch is whatever queued
  while the previous one ran (at most ``max_batch`` queries, oldest
  first).  A lone query never waits for company, while a burst is folded
  into one :meth:`~repro.core.engine.ReverseKRanksEngine.query_many`
  call that amortises CSR reuse, hub-index learning, and (with
  ``workers > 1``) shard dispatch across every concurrent client.

* **Admission control.**  The pending queue is bounded
  (``max_pending`` *queries*, not requests, so one giant batch cannot
  sneak past the limit).  A request that would overflow it is refused
  *immediately* with ``{"ok": false, "overloaded": true}`` — explicit
  backpressure the client can retry on — instead of queueing unbounded
  work.  Requests are also validated at admission
  (:meth:`~repro.core.engine.ReverseKRanksEngine.validate_batch`), so
  one client's bad node id fails that request alone, never the coalesced
  batch it would have joined.

Durability: with a :class:`~repro.serve.journal.DurableIndexStore`
attached, each drained batch's learning (captured with the master
index's learning log — which sees both sequential ``record_*`` calls and
parallel merge-backs) is journalled **and fsynced before any of the
batch's responses are released** — group commit, one fsync per batch.
A client that has seen its answer can therefore kill -9 the server and
find the learning still there on restart; at most the in-flight,
unanswered batch is lost.

Protocol (length-prefixed JSON, :mod:`repro.serve.protocol`): requests
are objects with an ``"op"`` key —

``{"op": "query", "queries": [n, ...], "k": K, "algorithm": "indexed"}``
    → ``{"ok": true, "results": [[[node, rank], ...], ...]}`` (one
    pair-list per query, ranks ascending, same order as ``queries``).
``{"op": "ping"}``
    → ``{"ok": true, "pong": true}`` (liveness; never queued).
``{"op": "info"}`` / ``{"op": "stats"}``
    → static configuration / live counters, respectively.
``{"op": "metrics"}``
    → ``{"ok": true, "metrics": "<Prometheus text exposition>"}`` — the
    server's full :class:`~repro.obs.metrics.MetricsRegistry` render
    (engine + pool + batcher, plus journal when the CLI shared one
    registry across all three).
``{"op": "trace", "enable": true|false}``
    → toggles batch tracing on the serving engine (``enable`` optional)
    and returns the last finished batch's span tree, if any.
``{"op": "shutdown"}``
    → acknowledges, then stops the server gracefully.
"""

from __future__ import annotations

import os
import socket
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.engine import ReverseKRanksEngine
from repro.core.config import AlgorithmKind
from repro.errors import (
    ProtocolError,
    ReproError,
    ServeError,
    is_positive_finite,
    is_positive_int,
)
from repro.serve.journal import DurableIndexStore
from repro.serve.protocol import BufferedReceiver, recv_message, send_message

__all__ = ["ServeConfig", "QueryServer"]


@dataclass
class ServeConfig:
    """Batching and admission knobs for :class:`QueryServer`.

    ``max_batch``
        The most queries one drained batch hands the engine (the
        coalescing ceiling).  ``1`` degenerates to one-query-per-request
        — the baseline the closed-loop benchmark compares against.
    ``max_pending``
        Admission bound, counted in queries: a request whose queries
        would push the pending count past this is refused with an
        overloaded response instead of queued.
    ``workers`` / ``worker_context``
        Passed through to ``query_many``; with ``workers > 1`` each
        coalesced batch is sharded across the engine's persistent
        worker pool.
    ``default_k`` / ``default_algorithm``
        Applied to query requests that omit ``k`` / ``algorithm``.
    ``batch_timeout_s``
        Wall-clock bound on one coalesced batch's *parallel* execution;
        a pool batch that exceeds it has its stuck workers killed and is
        retried on a fresh pool, then answered sequentially (see
        :meth:`~repro.core.engine.ReverseKRanksEngine.query_many`), so
        the server keeps answering correctly while the pool heals (or
        stays degraded).  A finite number of seconds above zero, or
        ``None`` (default) to wait indefinitely (worker crashes still
        surface via liveness polling).
    """

    max_batch: int = 64
    max_pending: int = 1024
    workers: int = 1
    worker_context: Optional[str] = None
    default_k: int = 1
    default_algorithm: str = "dynamic"
    batch_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        # Settings every request relies on: a bad one would boot a
        # server that fails each query instead of failing at startup.
        for name in ("max_batch", "max_pending", "workers", "default_k"):
            value = getattr(self, name)
            if not is_positive_int(value):
                raise ServeError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        if self.batch_timeout_s is not None and not is_positive_finite(
            self.batch_timeout_s
        ):
            raise ServeError(
                f"batch_timeout_s must be a finite number > 0 (or None), "
                f"got {self.batch_timeout_s!r}"
            )
        try:
            AlgorithmKind(self.default_algorithm)
        except ValueError:
            raise ServeError(
                f"default_algorithm must be one of "
                f"{[kind.value for kind in AlgorithmKind]}, got "
                f"{self.default_algorithm!r}"
            ) from None


class _PendingRequest:
    """One admitted query request waiting for its coalesced batch."""

    __slots__ = ("queries", "k", "kind", "done", "results", "error")

    def __init__(self, queries: List, k: int, kind: AlgorithmKind) -> None:
        self.queries = queries
        self.k = k
        self.kind = kind
        self.done = threading.Event()
        self.results: Optional[List] = None
        self.error: Optional[BaseException] = None

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.done.set()

    def succeed(self, results: List) -> None:
        self.results = results
        self.done.set()


class _Batcher:
    """The single engine-owning thread: drain, execute, journal, release.

    Handler threads call :meth:`submit`.  Whenever this thread is free
    and a request is pending, it takes at most ``max_batch`` queries,
    oldest first, groups them by ``(k, algorithm)`` — requests in one
    group share one ``query_many`` call — and journals the learning
    before completing the requests.  A batch is thus whatever queued
    while the previous one ran (group commit): no timer, and a request
    that finds the thread idle runs at once.
    """

    def __init__(
        self,
        engine: ReverseKRanksEngine,
        config: ServeConfig,
        store: Optional[DurableIndexStore],
        registry=None,
    ) -> None:
        self._engine = engine
        self._config = config
        self._store = store
        self._lock = threading.Condition()
        self._pending: List[_PendingRequest] = []
        self._pending_queries = 0
        self._stopping = False
        self._paused = False
        # Counters live in the metrics registry (shared with the engine
        # unless a dedicated one is injected); the legacy attribute names
        # (`batcher.batches` etc.) are properties over the same samples,
        # keeping the stats/health op payloads byte-compatible with one
        # source of truth.
        metrics = registry if registry is not None else engine.registry
        self._m_batches = metrics.counter(
            "repro_serve_batches_total",
            "Coalesced batches the serve batcher executed.",
        )
        self._m_queries = metrics.counter(
            "repro_serve_queries_total",
            "Queries answered through the serve batcher.",
        )
        self._m_requests = metrics.counter(
            "repro_serve_requests_total",
            "Query requests admitted by the batcher.",
        )
        self._m_overloads = metrics.counter(
            "repro_serve_overloads_total",
            "Requests refused by admission control (max_pending exceeded).",
        )
        self._m_journal_failures = metrics.counter(
            "repro_serve_journal_failures_total",
            "Batches whose journal write failed (responses withheld).",
        )
        self._m_batch_occupancy = metrics.histogram(
            "repro_serve_batch_queries",
            "Queries per drained batch.",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
        )
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )

    # -- legacy counter views (stats/health ops, tests) -----------------
    @property
    def batches(self) -> int:
        return int(self._m_batches.value)

    @property
    def queries(self) -> int:
        return int(self._m_queries.value)

    @property
    def requests(self) -> int:
        return int(self._m_requests.value)

    @property
    def overloads(self) -> int:
        return int(self._m_overloads.value)

    @property
    def journal_failures(self) -> int:
        """Batches whose journal write/fsync failed — their responses
        were withheld (failed loudly) to preserve the durability
        contract."""
        return int(self._m_journal_failures.value)

    def start(self) -> None:
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, request: _PendingRequest) -> bool:
        """Admit ``request`` or refuse it; ``False`` means overloaded."""
        with self._lock:
            if self._stopping:
                request.fail(ServeError("server is shutting down"))
                return True
            if (
                self._pending_queries + len(request.queries)
                > self._config.max_pending
            ):
                self._m_overloads.inc()
                return False
            self._pending.append(request)
            self._pending_queries += len(request.queries)
            self._m_requests.inc()
            self._lock.notify_all()
            return True

    def pause(self) -> None:
        """Hold draining (tests use this to build a deterministic batch)."""
        with self._lock:
            self._paused = True

    def resume(self) -> None:
        with self._lock:
            self._paused = False
            self._lock.notify_all()

    def stop(self) -> None:
        """Stop the thread; pending requests fail with a shutdown error."""
        with self._lock:
            self._stopping = True
            self._paused = False
            self._lock.notify_all()
        self._thread.join()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            self._execute(batch)
            with self._lock:
                # _pending_queries still counts the in-flight batch while
                # it executes, so admission control covers queued + running
                # work; release it only now.
                self._pending_queries -= sum(
                    len(request.queries) for request in batch
                )

    def _collect(self) -> Optional[List[_PendingRequest]]:
        """Wait until a request is pending; return the drained batch.

        Returns ``None`` exactly once, at shutdown, after failing any
        stragglers.
        """
        with self._lock:
            while not self._stopping and (self._paused or not self._pending):
                self._lock.wait()
            if self._stopping:
                for request in self._pending:
                    request.fail(ServeError("server is shutting down"))
                self._pending.clear()
                self._pending_queries = 0
                return None
            # At most max_batch queries, oldest first: the limit caps the
            # engine call (bounded batch latency), so a backlog is worked
            # off in max_batch-sized chunks.  A single request larger
            # than max_batch still goes through whole; admission already
            # vetted it.
            batch: List[_PendingRequest] = []
            taken = 0
            while self._pending:
                size = len(self._pending[0].queries)
                if batch and taken + size > self._config.max_batch:
                    break
                batch.append(self._pending.pop(0))
                taken += size
            self._m_batch_occupancy.observe(taken)
            # _pending_queries intentionally left counting the batch until
            # execution finishes (see _run).
            return batch

    def _execute(self, batch: List[_PendingRequest]) -> None:
        """Run one drained batch group-by-group, journal, then release."""
        groups: Dict[Tuple[int, AlgorithmKind], List[_PendingRequest]] = {}
        for request in batch:
            groups.setdefault((request.k, request.kind), []).append(request)
        index = self._engine.index
        for (k, kind), requests in groups.items():
            queries: List = []
            for request in requests:
                queries.extend(request.queries)
            if index is not None:
                index.start_learning_log()
            try:
                try:
                    # Concurrent clients asking the same (query, k,
                    # algorithm) in one batch share a single execution:
                    # query_many runs each distinct query once.
                    results = self._engine.query_many(
                        queries,
                        k,
                        algorithm=kind,
                        workers=self._config.workers,
                        worker_context=self._config.worker_context,
                        batch_timeout=self._config.batch_timeout_s,
                    )
                finally:
                    delta = (
                        index.pop_learning_log() if index is not None else None
                    )
            except BaseException as exc:  # noqa: BLE001 - forwarded per request
                for request in requests:
                    request.fail(exc)
                continue
            # Durability point: the batch's learning hits the fsynced
            # journal BEFORE any response is released, so an answer a
            # client has seen implies learning that survives kill -9.
            # A journal I/O failure therefore fails THIS batch's requests
            # loudly (no response escapes un-fsynced learning) and never
            # the batcher thread — the server keeps serving, and
            # DeltaJournal.append's truncate-back keeps later appends and
            # replay consistent.
            if self._store is not None and delta:
                try:
                    self._store.record(delta)
                    self._store.maybe_compact(index)
                except BaseException as exc:  # noqa: BLE001 - forwarded per request
                    self._m_journal_failures.inc()
                    for request in requests:
                        request.fail(exc)
                    continue
            offset = 0
            for request in requests:
                request.succeed(results[offset:offset + len(request.queries)])
                offset += len(request.queries)
            self._m_batches.inc()
            self._m_queries.inc(len(queries))


class QueryServer:
    """Threaded socket front-end around one resident engine.

    Listens on TCP (``host``/``port``; port ``0`` picks a free one — read
    :attr:`address` after :meth:`start`) or a unix domain socket
    (``unix_path``, which wins when both are given).  One daemon thread
    accepts connections; each connection gets a handler thread that
    speaks the framed-JSON protocol and forwards query ops to the shared
    :class:`_Batcher`.

    Use as a context manager, or pair :meth:`start` with :meth:`stop`.
    ``stop()`` (also reachable via the ``shutdown`` op) closes the
    listener, fails pending requests, closes live connections, and — when
    the server owns a durable store — compacts the journal into a final
    snapshot so the next boot starts with an empty journal.
    """

    def __init__(
        self,
        engine: ReverseKRanksEngine,
        config: Optional[ServeConfig] = None,
        store: Optional[DurableIndexStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        registry=None,
    ) -> None:
        self._engine = engine
        self._config = config or ServeConfig()
        self._store = store
        self._host = host
        self._port = port
        self._unix_path = unix_path
        # One registry per server: defaults to the engine's so a single
        # `metrics` scrape covers batcher + engine + pool (+ journal,
        # when the CLI wired the store to the same registry).
        self.registry = registry if registry is not None else engine.registry
        self._batcher = _Batcher(engine, self._config, store, self.registry)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: Dict[int, socket.socket] = {}
        self._conn_lock = threading.Lock()
        self._conn_ids = iter(range(1, 1 << 62))
        self._stopped = threading.Event()
        self._done = threading.Event()
        self._stop_lock = threading.Lock()
        self._started = False

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (TCP) — valid after :meth:`start`."""
        if self._listener is None:
            raise ServeError("server is not started")
        if self._unix_path is not None:
            raise ServeError("server is bound to a unix socket, not TCP")
        return self._listener.getsockname()[:2]

    @property
    def engine(self) -> ReverseKRanksEngine:
        return self._engine

    @property
    def batcher(self) -> _Batcher:
        """The batcher (tests pause/resume it for deterministic batches)."""
        return self._batcher

    # ------------------------------------------------------------------
    def start(self) -> "QueryServer":
        if self._started:
            raise ServeError("server already started")
        self._started = True
        if self._unix_path is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                os.unlink(self._unix_path)
            except FileNotFoundError:
                pass
            listener.bind(self._unix_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
        listener.listen(128)
        # Poll with a short timeout instead of blocking forever: closing
        # a listener does not reliably wake a thread parked in accept()
        # (notably on Linux), so stop() would otherwise hang on join.
        listener.settimeout(0.1)
        self._listener = listener
        self._batcher.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Block the calling thread until a :meth:`stop` has completed."""
        self._done.wait()

    def stop(self) -> None:
        """Graceful shutdown; idempotent (late callers wait for the first)."""
        with self._stop_lock:
            if self._stopped.is_set():
                already_stopping = True
            else:
                self._stopped.set()
                already_stopping = False
        if already_stopping:
            self._done.wait()
            return
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join()
        self._batcher.stop()
        with self._conn_lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
        # Fold the journal into a parting snapshot: a clean shutdown
        # leaves an empty journal, so the next boot replays nothing.
        if self._store is not None and self._engine.index is not None:
            self._store.compact(self._engine.index)
            self._store.close()
        self._engine.close_pool()
        self._done.set()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by stop()
            conn.settimeout(None)
            conn_id = next(self._conn_ids)
            with self._conn_lock:
                if self._stopped.is_set():
                    conn.close()
                    return
                self._connections[conn_id] = conn
            threading.Thread(
                target=self._handle_connection,
                args=(conn_id, conn),
                name=f"repro-serve-conn-{conn_id}",
                daemon=True,
            ).start()

    def _handle_connection(self, conn_id: int, conn: socket.socket) -> None:
        receiver = BufferedReceiver(conn)
        try:
            while not self._stopped.is_set():
                try:
                    message = recv_message(receiver)
                except ProtocolError as exc:
                    self._send_safe(conn, {"ok": False, "error": str(exc)})
                    return
                except OSError:
                    return
                if message is None:
                    return  # client closed cleanly
                try:
                    response, stop_after = self._dispatch(message)
                except BaseException as exc:  # noqa: BLE001 - reply, keep serving
                    response, stop_after = (
                        {"ok": False, "error": f"{type(exc).__name__}: {exc}"},
                        False,
                    )
                if not self._send_safe(conn, response):
                    return
                if stop_after:
                    # Shutdown must come from outside the handler thread:
                    # stop() joins every connection, including this one.
                    threading.Thread(
                        target=self.stop, name="repro-serve-stop", daemon=True
                    ).start()
                    return
        finally:
            with self._conn_lock:
                self._connections.pop(conn_id, None)
            try:
                conn.close()
            except OSError:
                pass

    def _send_safe(self, conn: socket.socket, message: dict) -> bool:
        try:
            send_message(conn, message)
            return True
        except (OSError, ProtocolError):
            return False

    # ------------------------------------------------------------------
    def _dispatch(self, message: dict) -> Tuple[dict, bool]:
        """Handle one request; returns ``(response, stop_after_send)``."""
        op = message.get("op")
        if op == "query":
            return self._op_query(message), False
        if op == "ping":
            return {"ok": True, "pong": True}, False
        if op == "info":
            return self._op_info(), False
        if op == "stats":
            return self._op_stats(), False
        if op == "health":
            return self._op_health(), False
        if op == "metrics":
            return (
                {
                    "ok": True,
                    "content_type": "text/plain; version=0.0.4",
                    "metrics": self.registry.render(),
                },
                False,
            )
        if op == "trace":
            return self._op_trace(message), False
        if op == "shutdown":
            return {"ok": True, "stopping": True}, True
        return {"ok": False, "error": f"unknown op {op!r}"}, False

    def _op_trace(self, message: dict) -> dict:
        """Toggle and/or read batch tracing on the serving engine.

        An optional boolean ``enable`` flips the engine tracer; either
        way the reply carries the current setting plus the most recent
        finished batch trace (``None`` until a traced batch completes).
        """
        tracer = self._engine.tracer
        enable = message.get("enable")
        if enable is not None:
            if not isinstance(enable, bool):
                return {"ok": False, "error": "'enable' must be a boolean"}
            tracer.enabled = enable
        return {
            "ok": True,
            "enabled": tracer.enabled,
            "trace": self._engine.last_trace,
        }

    def _op_query(self, message: dict) -> dict:
        config = self._config
        queries = message.get("queries")
        if queries is None and "query" in message:
            queries = [message["query"]]
        if not isinstance(queries, list) or not queries:
            return {
                "ok": False,
                "error": "query op needs a non-empty 'queries' list "
                "(or a single 'query')",
            }
        k = message.get("k", config.default_k)
        algorithm = message.get("algorithm", config.default_algorithm)
        # Admission-time validation: a bad node / k / algorithm fails THIS
        # request, before it can poison a coalesced batch.
        try:
            kind = self._engine.validate_batch(queries, k, algorithm)
        except (ReproError, ValueError, TypeError) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        request = _PendingRequest(list(queries), k, kind)
        if not self._batcher.submit(request):
            return {
                "ok": False,
                "overloaded": True,
                "error": (
                    f"admission queue full "
                    f"(max_pending={config.max_pending} queries); retry"
                ),
            }
        request.done.wait()
        if request.error is not None:
            exc = request.error
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        return {
            "ok": True,
            "results": [
                [[node, rank] for node, rank in result.as_pairs()]
                for result in request.results
            ],
        }

    def _op_info(self) -> dict:
        graph = self._engine.graph
        index = self._engine.index
        config = self._config
        info = {
            "ok": True,
            "pid": os.getpid(),
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "bichromatic": self._engine.is_bichromatic,
            "max_batch": config.max_batch,
            "max_pending": config.max_pending,
            "workers": config.workers,
            "default_k": config.default_k,
            "default_algorithm": config.default_algorithm,
            "has_index": index is not None,
            "durable": self._store is not None,
        }
        if index is not None:
            info["index_capacity"] = index.capacity
            info["index_num_hubs"] = len(index.hubs)
        return info

    def _op_health(self) -> dict:
        """Liveness + self-healing counters (never queued; always answers).

        ``healthy`` means the serving machinery itself is intact (batcher
        thread alive, not stopping); ``degraded`` means the engine's
        circuit breaker gave up on parallel execution and batches run
        sequentially — correct answers, reduced throughput.  The
        worker-level counters come from
        :meth:`~repro.core.engine.ReverseKRanksEngine.pool_health` and
        survive pool rebuilds.
        """
        batcher = self._batcher
        health = {
            "ok": True,
            "healthy": batcher._thread.is_alive() and not self._stopped.is_set(),
            "journal_failures": batcher.journal_failures,
        }
        health.update(self._engine.pool_health())
        return health

    def _op_stats(self) -> dict:
        batcher = self._batcher
        index = self._engine.index
        stats = {
            "ok": True,
            "batches": batcher.batches,
            "queries": batcher.queries,
            "requests": batcher.requests,
            "overloads": batcher.overloads,
        }
        if index is not None:
            stats["index_known_ranks"] = index.num_known_ranks
            stats["index_revision"] = index.revision
        if self._store is not None:
            stats["journal_seq"] = self._store.last_seq
            stats["journal_records"] = self._store.journal.num_records
            stats["journal_bytes"] = self._store.journal.size_bytes
            stats["compactions"] = self._store.compactions
        return stats
