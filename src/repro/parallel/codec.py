"""The reply format of a query shard: one pickle of its results.

A worker answers a shard with :meth:`ShardResultCodec.encode` of the
:class:`~repro.core.types.QueryResult` list its engine produced —
entries, per-query :class:`~repro.core.types.QueryStats`, ``k`` and the
algorithm label travel as they are, so a decoded result equals the
worker's in value *and* type.  The master rebuilds the list with
:meth:`ShardResultCodec.decode` as each reply arrives, and trusts
nothing the worker reports about which queries it answered: a reply
whose length or ``query`` sequence differs from the master's own shard
plan is refused before any batch position is filled.
"""

from __future__ import annotations

import pickle
from typing import List, Sequence

from repro.core.types import QueryResult
from repro.errors import ParallelExecutionError

__all__ = ["ShardResultCodec"]


class ShardResultCodec:
    """Encodes a shard's results (worker side) and decodes them (master side)."""

    @staticmethod
    def encode(results: Sequence[QueryResult]) -> bytes:
        """One pickle of ``results``, in shard order."""
        return pickle.dumps(list(results), protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def decode(payload: bytes, queries: Sequence) -> List[QueryResult]:
        """The results ``payload`` carries, checked against the plan's ``queries``.

        ``queries`` are the shard's query nodes from the *master's* plan,
        in shard order; result ``i`` must answer ``queries[i]``.

        Raises
        ------
        ParallelExecutionError
            When ``payload`` does not unpickle to a result list, or its
            length or ``query`` sequence differs from ``queries``.
        """
        try:
            results = pickle.loads(payload)
        except Exception as exc:  # corrupt pickles raise many types
            raise ParallelExecutionError(
                f"shard reply does not unpickle: {exc!r}"
            ) from exc
        if not isinstance(results, list) or len(results) != len(queries):
            count = len(results) if isinstance(results, list) else None
            raise ParallelExecutionError(
                f"shard reply carries {count} results but the plan "
                f"assigned {len(queries)} queries"
            )
        for position, (result, query) in enumerate(zip(results, queries)):
            if not isinstance(result, QueryResult) or result.query != query:
                answered = getattr(result, "query", result)
                raise ParallelExecutionError(
                    f"shard reply answers {answered!r} at shard position "
                    f"{position}, where the plan assigned {query!r}"
                )
        return results
