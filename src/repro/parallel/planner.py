"""Shard planning: how a query batch is split across worker processes.

A :class:`ShardPlanner` turns an ordered batch of query nodes into a
:class:`ShardPlan` — one :class:`Shard` per worker slot, each carrying the
queries it should evaluate *and their positions in the original batch*, so
the merger can reassemble results in input order no matter which shard
finishes first.

Sharding is round-robin: position ``i`` goes to shard ``i mod n``.  It
costs nothing to plan, balances homogeneous batches to within one query,
and is deterministic, which keeps parallel runs reproducible.

Hub explorations are split differently, by :func:`chunk_evenly`: into
contiguous runs (the order the master installs rows in), of equal
counts for a build and of equal remaining settles for a repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.errors import ParallelExecutionError, is_positive_int

NodeId = Hashable

__all__ = ["Shard", "ShardPlan", "ShardPlanner", "chunk_evenly"]


def chunk_evenly(
    items: Sequence, parts: int, costs: Optional[Sequence[int]] = None
) -> List[List]:
    """Split ``items`` into ``parts`` contiguous chunks of near-equal cost.

    Order-preserving by construction: concatenating the chunks reproduces
    ``items`` exactly.  Sharded hub-index builds and repairs depend on
    that — dispatching *contiguous* hub runs and installing the returned
    rows in chunk order replays the sequential exploration's recording
    sequence verbatim, which is what makes the result bit-identical (not
    merely equivalent) to exploring every hub in one process.

    ``costs`` (non-negative integers, one per item; default: 1 each)
    weighs the items: a repair's hub costs the settles it has left, the
    budget minus its unchanged prefix.  Each item goes to the chunk that
    holds the midpoint of its cost on the running total, so each chunk
    boundary falls within half an item's cost of an even split; under
    unit costs the chunk sizes differ by at most one.  Chunks may be
    empty when ``parts > len(items)``.
    """
    if not is_positive_int(parts):
        raise ParallelExecutionError(
            f"parts must be a positive integer, got {parts!r}"
        )
    sequence = list(items)
    weights = [1] * len(sequence) if costs is None else list(costs)
    total = sum(weights)
    chunks: List[List] = [[] for _ in range(parts)]
    spent = 0
    for item, cost in zip(sequence, weights):
        # The chunk of the cost interval's midpoint, in exact integers.
        part = (2 * spent + cost) * parts // (2 * total) if total else 0
        chunks[min(part, parts - 1)].append(item)
        spent += cost
    return chunks


@dataclass(frozen=True)
class Shard:
    """One worker's slice of a batch: queries plus their batch positions."""

    index: int
    positions: Tuple[int, ...]
    queries: Tuple[NodeId, ...]

    def __len__(self) -> int:
        return len(self.queries)


@dataclass(frozen=True)
class ShardPlan:
    """The full assignment of a batch to ``num_shards`` worker slots."""

    num_shards: int
    shards: Tuple[Shard, ...]

    @property
    def num_queries(self) -> int:
        """Total queries across all shards."""
        return sum(len(shard) for shard in self.shards)

    def non_empty(self) -> List[Shard]:
        """The shards that actually carry work."""
        return [shard for shard in self.shards if shard.queries]

    def skew(self) -> float:
        """Largest shard size over the ideal even share (>= 1.0).

        ``1.0`` is a perfectly balanced plan; ``2.0`` means the busiest
        worker got twice its fair share of queries, so the batch's
        critical path is ~2x the balanced one.  The engine observes this
        per plan into the ``repro_shard_skew_ratio`` histogram.
        """
        total = self.num_queries
        if total == 0 or self.num_shards <= 0:
            return 1.0
        ideal = total / self.num_shards
        return max(len(shard) for shard in self.shards) / ideal


class ShardPlanner:
    """Deterministically assigns a query batch to worker slots, round-robin.

    Parameters
    ----------
    num_shards:
        How many slots (normally the pool's worker count) to plan for.
    """

    def __init__(self, num_shards: int) -> None:
        if not is_positive_int(num_shards):
            raise ParallelExecutionError(
                f"num_shards must be a positive integer, got {num_shards!r}"
            )
        self._num_shards = num_shards

    @property
    def num_shards(self) -> int:
        """How many worker slots plans are built for."""
        return self._num_shards

    # ------------------------------------------------------------------
    def plan(self, queries: Sequence[NodeId]) -> ShardPlan:
        """Assign ``queries`` (an ordered batch) to shards round-robin."""
        buckets: List[List[Tuple[int, NodeId]]] = [
            [] for _ in range(self._num_shards)
        ]
        for position, query in enumerate(queries):
            buckets[position % self._num_shards].append((position, query))
        shards = tuple(
            Shard(
                index=shard_index,
                positions=tuple(position for position, _ in bucket),
                queries=tuple(query for _, query in bucket),
            )
            for shard_index, bucket in enumerate(buckets)
        )
        return ShardPlan(num_shards=self._num_shards, shards=shards)
