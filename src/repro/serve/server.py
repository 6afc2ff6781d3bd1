"""The always-on reverse k-ranks query server.

One resident :class:`~repro.core.engine.ReverseKRanksEngine` (with its
warm hub index and, optionally, its persistent worker pool) answers
queries from many concurrent clients, all on one thread.  Three ideas
carry the design:

* **One selector loop.**  A single thread multiplexes the listener and
  every connection with :mod:`selectors`.  It accepts connections,
  reads each into its own :class:`~repro.serve.protocol.BufferedReceiver`,
  hands every complete frame to
  :func:`~repro.serve.protocol.recv_message`, and writes each response
  with :func:`~repro.serve.protocol.send_message` through a
  non-blocking send that buffers whatever the socket does not take.  No
  request crosses a thread, so none pays a thread handoff.  A
  connection is read again only once its earlier responses are flushed,
  so a client that stalls mid-frame or never reads its answers delays
  nobody else, and a malformed frame gets ``{"ok": false}`` and closes
  its own connection only.  Every op but ``query`` is answered as soon
  as it is read, which is between batches: ``ping``, ``health``,
  ``stats`` and ``metrics`` wait at most for the batch the loop is
  running.  The CLI's ``--metrics-port`` endpoint keeps its own thread.

* **Batch coalescing.**  Between reads the loop runs whatever queries
  are pending (:class:`_Batcher`): at most ``max_batch`` queries,
  oldest first, so a batch is whatever arrived while the previous one
  ran.  A lone query never waits for company, while a burst is folded
  into one engine batch per ``(k, algorithm)`` that amortises CSR
  reuse, hub-index learning, and (with ``workers > 1``) shard dispatch
  across every concurrent client.  With ``workers > 1`` the loop waits
  out each pool round trip: it reads and writes nothing while the
  workers compute.

* **Admission control.**  The pending queue is bounded
  (``max_pending`` *queries*, not requests, so one giant batch cannot
  sneak past the limit).  A request that would overflow it is refused
  when it is read, with ``{"ok": false, "overloaded": true}`` —
  explicit backpressure the client can retry on — instead of queueing
  unbounded work.  Requests are also validated at admission
  (:meth:`~repro.core.engine.ReverseKRanksEngine.validate_batch`), so
  one client's bad node id fails that request alone, never the
  coalesced batch it would have joined.

Durability: with a :class:`~repro.serve.journal.DurableIndexStore`
attached, each batch's learning (captured with the master index's
learning log — which sees both sequential ``record_*`` calls and
parallel merge-backs) is journalled **and fsynced before any byte of
the batch's responses is written** — group commit, one fsync per batch.
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
import selectors
import socket
import sys
import threading
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

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
from repro.serve.protocol import (
    READ_BYTES,
    BufferedReceiver,
    recv_message,
    send_message,
)

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


class _Connection:
    """One client socket as the loop sees it.

    ``inbox`` holds what was read and not yet framed, ``outbox`` the
    response bytes the socket has not taken yet, and ``request`` the
    admitted query request the connection waits on.  The loop reads a
    connection only while it is idle (no request, empty outbox), so
    responses leave in request order.  ``eof`` means nothing more will
    be read: the peer closed its side, or a malformed frame ended the
    conversation.  ``events`` is the selector interest last registered.
    """

    __slots__ = ("sock", "inbox", "outbox", "request", "eof", "events")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbox = BufferedReceiver()
        self.outbox = bytearray()
        self.request: Optional[_PendingRequest] = None
        self.eof = False
        self.events = 0

    def sendall(self, data: bytes) -> None:
        """Send what the socket takes now and buffer the rest.

        The writer :func:`~repro.serve.protocol.send_message` calls: the
        socket is tried first, so a response that fits is on its way
        when this returns; the loop flushes the remainder as the socket
        drains.  ``OSError`` means the peer is gone.
        """
        if not self.outbox:
            try:
                sent = self.sock.send(data)
            except BlockingIOError:
                sent = 0
            if sent == len(data):
                return
            data = data[sent:]
        self.outbox += data

    def flush(self) -> None:
        """Send what the socket takes of the buffered response bytes."""
        try:
            sent = self.sock.send(self.outbox)
        except BlockingIOError:
            return
        del self.outbox[:sent]


class _PendingRequest:
    """One admitted query request waiting for its coalesced batch."""

    __slots__ = ("queries", "k", "kind", "conn", "results", "error")

    def __init__(
        self, queries: List, k: int, kind: AlgorithmKind, conn: _Connection
    ) -> None:
        self.queries = queries
        self.k = k
        self.kind = kind
        self.conn = conn
        self.results: Optional[List] = None
        self.error: Optional[BaseException] = None


class _Batcher:
    """Admission, coalescing and execution of query requests.

    The server's loop thread calls :meth:`submit` for each query request
    it reads and :meth:`run` whenever :meth:`ready`.  :meth:`run` takes
    at most ``max_batch`` queries, oldest first, groups them by ``(k,
    algorithm)`` — requests in one group share one engine batch — and
    journals the learning before completing the requests.  A batch is
    thus whatever queued while the previous one ran (group commit): no
    timer, and a request that finds the loop idle runs at once.
    """

    def __init__(
        self,
        engine: ReverseKRanksEngine,
        config: ServeConfig,
        store: Optional[DurableIndexStore],
        registry,
        wake,
    ) -> None:
        self._engine = engine
        self._config = config
        self._store = store
        self._wake = wake
        self._pending: Deque[_PendingRequest] = deque()
        self._pending_queries = 0
        self._paused = False
        # Counters live in the server's metrics registry; the legacy
        # attribute names (`batcher.batches` etc.) are properties over
        # the same samples, keeping the stats/health op payloads
        # byte-compatible with one source of truth.
        self._m_batches = registry.counter(
            "repro_serve_batches_total",
            "Coalesced batches the serve batcher executed.",
        )
        self._m_queries = registry.counter(
            "repro_serve_queries_total",
            "Queries answered through the serve batcher.",
        )
        self._m_requests = registry.counter(
            "repro_serve_requests_total",
            "Query requests admitted by the batcher.",
        )
        self._m_overloads = registry.counter(
            "repro_serve_overloads_total",
            "Requests refused by admission control (max_pending exceeded).",
        )
        self._m_journal_failures = registry.counter(
            "repro_serve_journal_failures_total",
            "Batches whose journal write failed (responses withheld).",
        )
        self._m_batch_occupancy = registry.histogram(
            "repro_serve_batch_queries",
            "Queries per drained batch.",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
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

    # ------------------------------------------------------------------
    def submit(self, request: _PendingRequest) -> bool:
        """Admit ``request`` or refuse it; ``False`` means overloaded."""
        if self._pending_queries + len(request.queries) > self._config.max_pending:
            self._m_overloads.inc()
            return False
        self._pending.append(request)
        self._pending_queries += len(request.queries)
        self._m_requests.inc()
        return True

    def pause(self) -> None:
        """Hold draining (tests use this to build a deterministic batch).

        Safe from any thread, as is :meth:`resume`.
        """
        self._paused = True

    def resume(self) -> None:
        self._paused = False
        self._wake()

    def ready(self) -> bool:
        """Whether :meth:`run` has a batch to run."""
        return bool(self._pending) and not self._paused

    def run(self) -> List[_PendingRequest]:
        """Run the next batch and return its completed requests.

        At most ``max_batch`` queries, oldest first: the limit caps the
        engine call (bounded batch latency), so a backlog is worked off
        in ``max_batch``-sized chunks.  A single request larger than
        ``max_batch`` still goes through whole; admission already vetted
        it.
        """
        pending = self._pending
        batch: List[_PendingRequest] = []
        taken = 0
        while pending:
            size = len(pending[0].queries)
            if batch and taken + size > self._config.max_batch:
                break
            batch.append(pending.popleft())
            taken += size
        self._pending_queries -= taken
        self._m_batch_occupancy.observe(taken)
        self._execute(batch)
        return batch

    def drain(self, error: BaseException) -> List[_PendingRequest]:
        """Fail every queued request with ``error`` and return them."""
        batch = list(self._pending)
        self._pending.clear()
        self._pending_queries = 0
        for request in batch:
            request.error = error
        return batch

    def _execute(self, batch: List[_PendingRequest]) -> None:
        """Run one drained batch group-by-group, journal, then release."""
        groups: Dict[Tuple[int, AlgorithmKind], List[_PendingRequest]] = {}
        for request in batch:
            groups.setdefault((request.k, request.kind), []).append(request)
        index = self._engine.index
        config = self._config
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
                        workers=config.workers,
                        worker_context=config.worker_context,
                        batch_timeout=config.batch_timeout_s,
                    )
                finally:
                    delta = (
                        index.pop_learning_log() if index is not None else None
                    )
            except Exception as exc:  # noqa: BLE001 - forwarded per request
                for request in requests:
                    request.error = exc
                continue
            # Durability point: the batch's learning hits the fsynced
            # journal BEFORE any response is written, so an answer a
            # client has seen implies learning that survives kill -9.
            # A journal I/O failure therefore fails THIS batch's requests
            # loudly (no response escapes un-fsynced learning) and never
            # the loop — the server keeps serving, and
            # DeltaJournal.append's truncate-back keeps later appends and
            # replay consistent.
            if self._store is not None and delta:
                try:
                    self._store.record(delta)
                    self._store.maybe_compact(index)
                except Exception as exc:  # noqa: BLE001 - forwarded per request
                    self._m_journal_failures.inc()
                    for request in requests:
                        request.error = exc
                    continue
            offset = 0
            for request in requests:
                request.results = results[offset:offset + len(request.queries)]
                offset += len(request.queries)
            self._m_batches.inc()
            self._m_queries.inc(len(queries))


class QueryServer:
    """Socket front-end around one resident engine, served by one loop.

    Listens on TCP (``host``/``port``; port ``0`` picks a free one — read
    :attr:`address` after :meth:`start`) or a unix domain socket
    (``unix_path``, which wins when both are given).  :meth:`start`
    launches the loop thread, which speaks the framed-JSON protocol on
    every connection and runs the :class:`_Batcher`'s batches itself.

    Use as a context manager, or pair :meth:`start` with :meth:`stop`.
    ``stop()`` (also reachable via the ``shutdown`` op) wakes the loop
    through a socketpair; the loop fails pending requests, closes the
    listener and live connections, and — when the server owns a durable
    store — compacts the journal into a final snapshot so the next boot
    starts with an empty journal.
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
        self._batcher = _Batcher(
            engine, self._config, store, self.registry, self._wake
        )
        self._listener: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        self._wake_recv: Optional[socket.socket] = None
        self._wake_send: Optional[socket.socket] = None
        self._connections: Set[_Connection] = set()
        self._thread: Optional[threading.Thread] = None
        self._stopping = False
        self._stop_lock = threading.Lock()
        self._done = threading.Event()
        # The first exception that ended the loop or broke the shutdown,
        # raised again by stop() and serve_forever().
        self._error: Optional[BaseException] = None

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
        if self._thread is not None or self._stopping:
            raise ServeError("server already started or stopped")
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
        listener.setblocking(False)
        self._listener = listener
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ)
        self._selector.register(self._wake_recv, selectors.EVENT_READ)
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Block the calling thread until a :meth:`stop` has completed.

        Raises what ended the loop or broke its shutdown, if anything did.
        """
        self._done.wait()
        self._raise_error()

    def stop(self) -> None:
        """Graceful shutdown; idempotent (late callers wait for the first).

        Raises what ended the loop or broke its shutdown (the journal's
        final compaction, say), if anything did.
        """
        with self._stop_lock:
            first = not self._stopping
            self._stopping = True
        if self._thread is None:
            # Never started: nothing serves, so shut down here.
            if first:
                self._shut_down()
        else:
            self._wake()
            self._done.wait()
        self._raise_error()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _wake(self) -> None:
        """Make the loop's next ``select`` return (any thread)."""
        if self._wake_send is None:
            return
        try:
            self._wake_send.send(b"\0")
        except OSError:
            pass  # a wake-up is already queued, or the loop is gone

    def _raise_error(self) -> None:
        if self._error is not None:
            raise self._error

    def _run(self) -> None:
        """The loop: read and answer, then run one pending batch.

        An unexpected error in one connection's reads, writes or
        requests closes that connection only (:meth:`_drop`).
        """
        batcher = self._batcher
        select = self._selector.select
        try:
            while not self._stopping:
                for key, mask in select(0 if batcher.ready() else None):
                    conn = key.data
                    if conn is None:
                        if key.fileobj is self._listener:
                            self._accept()
                        else:
                            self._wake_recv.recv(4096)
                        continue
                    try:
                        if mask & selectors.EVENT_WRITE:
                            self._flush(conn)
                        else:
                            self._read(conn)
                    except Exception:  # noqa: BLE001 - one connection's fault
                        self._drop(conn)
                if batcher.ready() and not self._stopping:
                    for request in batcher.run():
                        conn = request.conn
                        conn.request = None
                        try:
                            if self._reply(conn, self._answer(request)):
                                self._serve_frames(conn)
                        except Exception:  # noqa: BLE001 - one connection's fault
                            self._drop(conn)
        except Exception as exc:  # noqa: BLE001 - raised again by stop()
            self._error = exc
        finally:
            self._shut_down()

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                # None left (BlockingIOError), or one that failed: the
                # next select reports the listener again if any remain.
                return
            sock.setblocking(False)
            conn = _Connection(sock)
            self._connections.add(conn)
            self._watch(conn)

    def _read(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(READ_BYTES)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        if data:
            conn.inbox.feed(data)
        else:
            conn.eof = True
        self._serve_frames(conn)

    def _flush(self, conn: _Connection) -> None:
        try:
            conn.flush()
        except OSError:
            self._close(conn)
            return
        if not conn.outbox:
            self._serve_frames(conn)
        # else: still registered for EVENT_WRITE

    def _serve_frames(self, conn: _Connection) -> None:
        """Answer ``conn``'s buffered frames in order until one must wait.

        Stops at a query admitted to the batcher or a response the
        socket did not take whole; the loop comes back when the batch
        has run or the response is flushed.  After ``eof`` the rest of
        the buffer is read as the socket would be: a clean end closes
        the connection, a torn frame gets an error response first.
        """
        while (
            conn.request is None
            and not conn.outbox
            and (conn.eof or conn.inbox.has_frame())
        ):
            try:
                message = recv_message(conn.inbox)
            except ProtocolError as exc:
                # The stream cannot be re-synchronised: answer, then
                # close once the answer is out.
                conn.eof = True
                conn.inbox = BufferedReceiver()
                if not self._reply(conn, {"ok": False, "error": str(exc)}):
                    return
                continue
            if message is None:
                self._close(conn)
                return
            try:
                response = self._dispatch(conn, message)
            except Exception as exc:  # noqa: BLE001 - reply, keep serving
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            if response is not None and not self._reply(conn, response):
                return
        self._watch(conn)

    def _reply(self, conn: _Connection, response: dict) -> bool:
        """Write ``response``; ``False`` (connection closed) if the peer is gone."""
        try:
            send_message(conn, response)
            return True
        except (OSError, ProtocolError):
            self._close(conn)
            return False

    def _watch(self, conn: _Connection) -> None:
        """Register the interest ``conn``'s state calls for.

        Write while response bytes wait, nothing while a request is in
        a batch (or after ``eof``), read otherwise.
        """
        if conn.outbox:
            events = selectors.EVENT_WRITE
        elif conn.request is not None or conn.eof:
            events = 0
        else:
            events = selectors.EVENT_READ
        if events == conn.events:
            return
        if not conn.events:
            self._selector.register(conn.sock, events, conn)
        elif not events:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _drop(self, conn: _Connection) -> None:
        """Close ``conn`` after an unexpected error, printing it to stderr."""
        self._close(conn)
        print(
            "repro.serve: closed a connection after an unexpected error",
            file=sys.stderr,
        )
        traceback.print_exc()

    def _close(self, conn: _Connection) -> None:
        if conn.events:
            self._selector.unregister(conn.sock)
            conn.events = 0
        self._connections.discard(conn)
        try:
            conn.sock.close()
        except OSError:
            pass

    def _shut_down(self) -> None:
        """Fail pending requests, close every socket, compact, release.

        The first exception is kept for :meth:`stop` to raise; the pool
        is closed whatever happened before.
        """
        try:
            failed = self._batcher.drain(ServeError("server is shutting down"))
            for request in failed:
                # Best effort: one non-blocking try, then the close.
                self._reply(request.conn, self._answer(request))
            for conn in list(self._connections):
                if conn.outbox:
                    try:
                        conn.flush()
                    except OSError:
                        pass
                self._close(conn)
            for sock in (self._listener, self._wake_recv, self._wake_send):
                if sock is not None:
                    sock.close()
            if self._selector is not None:
                self._selector.close()
            if self._unix_path is not None and self._listener is not None:
                try:
                    os.unlink(self._unix_path)
                except OSError:
                    pass
            # Fold the journal into a parting snapshot: a clean shutdown
            # leaves an empty journal, so the next boot replays nothing.
            if self._store is not None and self._engine.index is not None:
                try:
                    self._store.compact(self._engine.index)
                finally:
                    self._store.close()
        except Exception as exc:  # noqa: BLE001 - raised again by stop()
            if self._error is None:
                self._error = exc
        try:
            self._engine.close_pool()
        except Exception as exc:  # noqa: BLE001 - raised again by stop()
            if self._error is None:
                self._error = exc
        finally:
            self._done.set()

    # ------------------------------------------------------------------
    @staticmethod
    def _answer(request: _PendingRequest) -> dict:
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

    def _dispatch(self, conn: _Connection, message: dict) -> Optional[dict]:
        """Handle one request: its response, or ``None`` once a query
        was admitted (its response follows its batch)."""
        op = message.get("op")
        if op == "query":
            return self._op_query(conn, message)
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "info":
            return self._op_info()
        if op == "stats":
            return self._op_stats()
        if op == "health":
            return self._op_health()
        if op == "metrics":
            return {
                "ok": True,
                "content_type": "text/plain; version=0.0.4",
                "metrics": self.registry.render(),
            }
        if op == "trace":
            return self._op_trace(message)
        if op == "shutdown":
            # The loop ends after this pass; the acknowledgement is
            # written first (and flushed once more at shutdown).
            self._stopping = True
            return {"ok": True, "stopping": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

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

    def _op_query(self, conn: _Connection, message: dict) -> Optional[dict]:
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
        request = _PendingRequest(queries, k, kind, conn)
        if not self._batcher.submit(request):
            return {
                "ok": False,
                "overloaded": True,
                "error": (
                    f"admission queue full "
                    f"(max_pending={config.max_pending} queries); retry"
                ),
            }
        conn.request = request
        return None

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

        ``healthy`` means the serving machinery itself is intact (the
        loop answers and is not stopping); ``degraded`` means the engine's
        circuit breaker gave up on parallel execution and batches run
        sequentially — correct answers, reduced throughput.  The
        worker-level counters come from
        :meth:`~repro.core.engine.ReverseKRanksEngine.pool_health` and
        survive pool rebuilds.
        """
        health = {
            "ok": True,
            "healthy": not self._stopping,
            "journal_failures": self._batcher.journal_failures,
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
