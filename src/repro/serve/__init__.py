"""Always-on query serving with durable learned-index state.

The package turns the batch-oriented engine into a long-running service:

* :mod:`repro.serve.protocol` — length-prefixed JSON framing (TCP or
  unix sockets, stdlib only);
* :mod:`repro.serve.server` — :class:`QueryServer`: a threaded accept
  loop whose single batcher thread, whenever it is free, drains the
  client queries that queued meanwhile into one ``query_many`` batch,
  with bounded admission and explicit overload responses;
* :mod:`repro.serve.client` — :class:`ServeClient`, the blocking
  client;
* :mod:`repro.serve.journal` — :class:`DeltaJournal` and
  :class:`DurableIndexStore`: CRC-framed append-only learning journal,
  snapshot compaction, and crash-safe replay so a restarted server is
  exactly as warm as it stopped;
* :mod:`repro.serve.loadgen` — the closed-loop benchmark client
  (latency percentiles, throughput, batched-vs-unbatched comparison);
* ``python -m repro.serve`` — the CLI entry point.
"""

from repro.serve.client import ServeClient
from repro.serve.journal import DeltaJournal, DurableIndexStore
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    BufferedReceiver,
    recv_message,
    send_message,
)
from repro.serve.server import QueryServer, ServeConfig

__all__ = [
    "BufferedReceiver",
    "DeltaJournal",
    "DurableIndexStore",
    "MAX_FRAME_BYTES",
    "QueryServer",
    "ServeClient",
    "ServeConfig",
    "recv_message",
    "send_message",
]
