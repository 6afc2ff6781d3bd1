"""Blocking client for the query service (stdlib only).

One :class:`ServeClient` wraps one connection; requests on a connection
are strictly sequential (send one frame, read one frame), so share a
client across threads only behind your own lock — or give each thread
its own, which is what the closed-loop load generator does.

Failure surfacing: a socket that dies mid-request (server killed,
connection reset, timeout) raises the typed
:class:`~repro.errors.ServeConnectionError` instead of a bare
``OSError``.  Because every op the client speaks is an idempotent read
(or the idempotent ``shutdown``), the opt-in ``retries=`` knob may
transparently reconnect and retry on connection failures — and on
:class:`~repro.errors.ServerOverloadedError`, where the server
explicitly promised no work was done — with capped exponential backoff
and full jitter between attempts.
"""

from __future__ import annotations

import random
import socket
import time
from typing import List, Optional, Tuple

from repro.errors import (
    ProtocolError,
    ServeConnectionError,
    ServeError,
    ServerOverloadedError,
)
from repro.serve.protocol import BufferedReceiver, recv_message, send_message

__all__ = ["ServeClient"]


class ServeClient:
    """Connect to a :class:`~repro.serve.server.QueryServer` and talk to it.

    Parameters mirror the server's transports: give ``host``/``port`` for
    TCP or ``unix_path`` for a unix domain socket (which wins when both
    are given).  Use as a context manager or call :meth:`close`.

    ``retries`` (default 0: fail fast) is how many times a failed call
    may be transparently retried on transient failures — a refused or
    dropped connection (:class:`~repro.errors.ServeConnectionError`;
    the client reconnects first) or explicit overload backpressure
    (:class:`~repro.errors.ServerOverloadedError`).  Attempt ``n`` sleeps
    ``uniform(0, min(backoff_cap_s, backoff_s * 2**n))`` first — full
    jitter, so a thundering herd of retrying clients decorrelates
    instead of re-colliding.  :attr:`retries_used` counts retries spent
    over the client's lifetime.  Server-side *request* errors (bad node,
    bad k) are never retried: the server answered; the answer was no.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff_s: float = 0.01,
        backoff_cap_s: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not isinstance(retries, int) or isinstance(retries, bool) or retries < 0:
            raise ServeError(
                f"retries must be a non-negative integer, got {retries!r}"
            )
        if unix_path is None and port is None:
            raise ServeError("ServeClient needs a port (or a unix_path)")
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self._timeout = timeout
        self._retries = retries
        self._backoff_s = backoff_s
        self._backoff_cap_s = backoff_cap_s
        self._rng = rng if rng is not None else random.Random()
        #: Retries spent over this client's lifetime (transparent
        #: reconnect/overload retries; load reports aggregate it).
        self.retries_used = 0
        self._sock: Optional[socket.socket] = None
        self._receiver: Optional[BufferedReceiver] = None
        self._connect()

    # ------------------------------------------------------------------
    def _connect(self) -> None:
        try:
            if self._unix_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self._timeout)
                sock.connect(self._unix_path)
            else:
                sock = socket.create_connection(
                    (self._host, self._port), timeout=self._timeout
                )
                # Frames are small and latency-bound; don't let Nagle
                # delay the final segment of a request.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            target = self._unix_path or f"{self._host}:{self._port}"
            raise ServeConnectionError(
                f"could not connect to the query server at {target}: {exc}"
            ) from exc
        self._sock = sock
        self._receiver = BufferedReceiver()

    def _call_once(self, message: dict) -> dict:
        try:
            send_message(self._sock, message)
            self._receiver.fill(self._sock)
            response = recv_message(self._receiver)
        except (ProtocolError, ServeError):
            raise
        except OSError as exc:
            raise ServeConnectionError(
                f"connection to the query server failed mid-request: {exc}"
            ) from exc
        if response is None:
            raise ServeConnectionError(
                "server closed the connection mid-request"
            )
        if response.get("ok"):
            return response
        if response.get("overloaded"):
            raise ServerOverloadedError(
                response.get("error", "server overloaded")
            )
        raise ServeError(response.get("error", "request failed"))

    def _call(self, message: dict) -> dict:
        attempt = 0
        while True:
            try:
                if self._sock is None:
                    self._connect()
                return self._call_once(message)
            except (ServeConnectionError, ServerOverloadedError) as exc:
                if attempt >= self._retries:
                    raise
                attempt += 1
                self.retries_used += 1
                if isinstance(exc, ServeConnectionError):
                    # The socket's state is unknowable; reconnect (at the
                    # top of the loop, so a refused reconnect also counts
                    # against the retry budget).
                    self.close()
                delay = min(
                    self._backoff_cap_s, self._backoff_s * (2 ** attempt)
                )
                time.sleep(self._rng.uniform(0.0, delay))

    # ------------------------------------------------------------------
    def query_many(
        self,
        queries: List,
        k: Optional[int] = None,
        algorithm: Optional[str] = None,
    ) -> List[List[Tuple[object, float]]]:
        """Answer a batch; one ``[(node, rank), ...]`` list per query.

        Omitted ``k``/``algorithm`` use the server's configured defaults.

        Raises
        ------
        ServeConnectionError
            When the connection failed (mid-request or reconnecting) and
            the retry budget is exhausted.
        ServerOverloadedError
            When admission control refused the request (past any
            retries); safe to retry — no work was done.
        ServeError
            On any other server-reported failure (bad node, bad k, ...).
        """
        message = {"op": "query", "queries": list(queries)}
        if k is not None:
            message["k"] = k
        if algorithm is not None:
            message["algorithm"] = algorithm
        response = self._call(message)
        return [
            [(node, rank) for node, rank in result]
            for result in response["results"]
        ]

    def query(
        self,
        query,
        k: Optional[int] = None,
        algorithm: Optional[str] = None,
    ) -> List[Tuple[object, float]]:
        """Answer one query; returns its ``[(node, rank), ...]`` list."""
        return self.query_many([query], k=k, algorithm=algorithm)[0]

    def ping(self) -> bool:
        """Round-trip a liveness probe (never enters the batch queue)."""
        return bool(self._call({"op": "ping"}).get("pong"))

    def info(self) -> dict:
        """The server's static configuration and graph shape."""
        return self._call({"op": "info"})

    def stats(self) -> dict:
        """Live counters: batches, queries, overloads, journal state."""
        return self._call({"op": "stats"})

    def health(self) -> dict:
        """Pool liveness, degraded mode, and crash/respawn/journal counters."""
        return self._call({"op": "health"})

    def metrics(self) -> str:
        """The server's metrics registry in Prometheus text exposition."""
        return self._call({"op": "metrics"})["metrics"]

    def trace(self, enable: Optional[bool] = None) -> dict:
        """Read (and optionally toggle) batch tracing on the server.

        Returns ``{"enabled": bool, "trace": <last batch span tree or
        None>}``; pass ``enable=True``/``False`` to flip tracing for all
        subsequent batches first.
        """
        message = {"op": "trace"}
        if enable is not None:
            message["enable"] = bool(enable)
        response = self._call(message)
        return {"enabled": response["enabled"], "trace": response["trace"]}

    def shutdown(self) -> None:
        """Ask the server to stop gracefully (acknowledged before it does)."""
        self._call({"op": "shutdown"})

    # ------------------------------------------------------------------
    def close(self) -> None:
        sock = self._sock
        self._sock = None
        self._receiver = None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc_value, tb) -> None:
        self.close()
