"""Length-prefixed JSON framing for the query service (stdlib only).

One frame is a 4-byte little-endian payload length followed by a UTF-8
JSON document.  JSON keeps the protocol debuggable with ``nc``/``socat``
and — unlike pickle — safe to expose on a socket: a malicious frame can
at worst be malformed, never execute code.  The framing works over any
``SOCK_STREAM`` transport (TCP or a unix domain socket).  The server
and :class:`~repro.serve.client.ServeClient` read each connection
through a :class:`BufferedReceiver`: a frame that arrived whole costs
one ``recv`` call instead of one for its header and one for its
payload, and each call hands the GIL to the process's other threads.

Request documents carry an ``op`` key (``"query"``, ``"ping"``,
``"info"``, ``"stats"``, ``"shutdown"``); responses always carry ``ok``
(bool) plus either the op's payload or an ``error`` string (and
``overloaded: true`` when admission control shed the request).  See
:mod:`repro.serve.server` for the op semantics.

Node identifiers travel as their JSON values, so served graphs must use
JSON-representable node ids (ints or strings — every ``python -m
repro.serve`` fixture and dataset loader produces int-keyed graphs).
Rank values are integer-valued doubles well below 2**53, so JSON
round-trips them bit-exactly — the restart smoke job's "answers match
bit-for-bit" check rides on that.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Optional

from repro.errors import ProtocolError

__all__ = [
    "MAX_FRAME_BYTES",
    "BufferedReceiver",
    "send_message",
    "recv_message",
]

#: Hard cap on one frame's payload, both directions.  Far above any real
#: request or response, low enough that a garbage length prefix (or a
#: client speaking a different protocol) cannot make the server allocate
#: gigabytes.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_HEADER = struct.Struct("<I")

#: How much one :meth:`BufferedReceiver.recv` asks the socket for.
_READ_AHEAD_BYTES = 1 << 16


def send_message(sock: socket.socket, message: dict) -> None:
    """Serialise ``message`` as one length-prefixed JSON frame and send it."""
    payload = json.dumps(
        message, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    sock.sendall(_HEADER.pack(len(payload)) + payload)


class BufferedReceiver:
    """The receive side of one connection, reading ahead.

    ``recv(count)`` returns up to ``count`` bytes of what the last
    socket read brought in, and reads the socket again (asking for at
    least 64 KiB) only once that is used up.  Bytes past the current
    frame stay buffered for the next one.  Give
    :func:`recv_message` the receiver instead of its socket, and read a
    connection through one receiver only.
    """

    __slots__ = ("_sock", "_data", "_offset")

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._data = b""
        self._offset = 0

    def recv(self, count: int) -> bytes:
        """Up to ``count`` buffered bytes; ``b""`` at EOF."""
        if self._offset == len(self._data):
            self._data = self._sock.recv(max(count, _READ_AHEAD_BYTES))
            self._offset = 0
        start = self._offset
        chunk = self._data[start:start + count]
        self._offset = start + len(chunk)
        return chunk


def recv_message(sock) -> Optional[dict]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary.

    ``sock`` is a socket or a :class:`BufferedReceiver` over one.

    Raises
    ------
    ProtocolError
        On EOF mid-frame, an oversized length prefix, a payload that is
        not valid JSON, or a JSON payload that is not an object.
    """
    header = _recv_exact(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (limit {MAX_FRAME_BYTES})"
        )
    payload = _recv_exact(sock, length, eof_ok=False)
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


def _recv_exact(sock, count: int, eof_ok: bool) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on immediate EOF if allowed."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining}/{count} "
                "bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
