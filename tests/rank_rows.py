"""Whole rows of the rank matrix, computed by the library's settle loop.

No program path needs every rank of one source, so these live with the
tests that check them, next to :mod:`rank_oracle` (the textbook Dijkstra
they are checked against).  They run the library's own
``_compact_rank_stream``, the loop :mod:`repro.core.naive` answers exact
ranks with, so a check of a row is a check of that loop.
"""

from __future__ import annotations

from repro.errors import NodeNotFoundError
from repro.graph.csr import as_compact
from repro.traversal.csr_ops import _compact_rank_stream


def compact_rank_stream(csr, source, counted=None):
    """Yield ``(node, distance, Rank(source, node))`` in settling order.

    Nodes settled at the same distance form a tie group and share the same
    "number of strictly closer counted nodes"; ties settle by node index.
    """
    if not csr.has_node(source):
        raise NodeNotFoundError(source)
    return _compact_rank_stream(csr, source, counted)


def rank_row(graph, source, counted=None):
    """``Rank(source, t)`` for every node ``t`` reachable from ``source``.

    ``graph`` is a :class:`~repro.graph.Graph` or a compilation of one.
    Nodes settled at the same distance form a tie group and share one
    rank; the row lists them by node index.
    """
    stream = compact_rank_stream(as_compact(graph), source, counted=counted)
    return {node: rank for node, _, rank in stream}
