"""Length-prefixed JSON framing for the query service (stdlib only).

One frame is a 4-byte little-endian payload length followed by a UTF-8
JSON document.  JSON keeps the protocol debuggable with ``nc``/``socat``
and — unlike pickle — safe to expose on a socket: a malicious frame can
at worst be malformed, never execute code.  The framing works over any
``SOCK_STREAM`` transport (TCP or a unix domain socket).  Both ends
keep what they read from a connection in a :class:`BufferedReceiver`
until a whole frame is there: the client fills it with blocking reads
of up to :data:`READ_BYTES` (so a frame that arrived whole costs one
``recv`` call instead of one for its header and one for its payload),
the server's loop with whatever its non-blocking reads return.

Request documents carry an ``op`` key (``"query"``, ``"ping"``,
``"info"``, ``"stats"``, ``"shutdown"``); responses always carry ``ok``
(bool) plus either the op's payload or an ``error`` string (and
``overloaded: true`` when admission control shed the request).  See
:mod:`repro.serve.server` for the op semantics.

Node identifiers travel as their JSON values, so served graphs must use
JSON-representable node ids (ints or strings — every ``python -m
repro.serve`` fixture and dataset loader produces int-keyed graphs).
Ranks are ints (a node that cannot reach the query is never in an
answer, so no rank is ``inf``), which JSON round-trips exactly — the
restart smoke job's "answers match bit-for-bit" check rides on that.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Optional

from repro.errors import ProtocolError

__all__ = [
    "MAX_FRAME_BYTES",
    "READ_BYTES",
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

#: How much one read of a connection asks the socket for.
READ_BYTES = 1 << 16


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
    """The receive side of one connection: the bytes read, framed on demand.

    Pass what each socket read returned to :meth:`feed` (or let
    :meth:`fill` read a blocking socket), then call :func:`recv_message`
    on the receiver once :meth:`has_frame` is true.  Bytes past the
    current frame stay buffered for the next one.  ``recv`` hands out
    buffered bytes only, never touching a socket, and returns ``b""``
    once they are used up.  So after the peer's EOF, :func:`recv_message`
    on the receiver reads the rest as it would read the socket: ``None``
    at a frame boundary, :class:`ProtocolError` mid-frame.  Read a
    connection through one receiver only.
    """

    __slots__ = ("_data", "_offset")

    def __init__(self) -> None:
        self._data = bytearray()
        self._offset = 0

    def feed(self, data: bytes) -> None:
        """Append what one socket read returned."""
        if self._offset:
            del self._data[:self._offset]
            self._offset = 0
        self._data += data

    def fill(self, sock: socket.socket) -> None:
        """Read ``sock`` until a whole frame is buffered or it reports EOF."""
        while not self.has_frame():
            data = sock.recv(READ_BYTES)
            if not data:
                return
            self.feed(data)

    def has_frame(self) -> bool:
        """Whether a whole frame is buffered, or a length prefix that
        :func:`recv_message` refuses without waiting for its payload."""
        available = len(self._data) - self._offset
        if available < _HEADER.size:
            return False
        (length,) = _HEADER.unpack_from(self._data, self._offset)
        return length > MAX_FRAME_BYTES or available >= _HEADER.size + length

    def recv(self, count: int) -> bytes:
        """Up to ``count`` buffered bytes; ``b""`` when none are left."""
        start = self._offset
        chunk = bytes(self._data[start:start + count])
        self._offset = start + len(chunk)
        return chunk


def recv_message(sock) -> Optional[dict]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary.

    ``sock`` is a socket or a :class:`BufferedReceiver`.

    Raises
    ------
    ProtocolError
        On EOF mid-frame, an oversized length prefix, a payload that is
        not valid JSON (or nests too deep, or holds an integer too long,
        for the decoder), or a JSON payload that is not an object.
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
    except (ValueError, RecursionError) as exc:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors, as is
        # an integer literal past the interpreter's digit limit.
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
