"""Flat-array transport of shard results (the zero-copy result path).

The pool used to pickle one full :class:`~repro.core.types.QueryResult` —
entries, per-query :class:`~repro.core.types.QueryStats`, label — per
query back through the result queue.  At smoke/default sizes that
per-object transport *dominated* parallel batches (2-worker batches ran
slower than the in-process ones).  Like Tuffy's materialisation of
inference state into flat relational buffers, the fix is to ship a whole
shard as a handful of dense ``array`` buffers and rebuild the rich
objects only at the parent-side boundary.

Wire format (one :class:`ShardResultBlock` per shard)
-----------------------------------------------------
header
    ``num_queries``, ``k`` and ``algorithm`` label (shared by the batch).
offsets : ``array('q')``, length ``num_queries + 1``
    Query ``i``'s result entries occupy ``[offsets[i], offsets[i+1])`` of
    the entry buffers; ``offsets[0] == 0`` and ``offsets[-1]`` equals the
    total entry count.
ranks : ``array('d')``
    One rank value per entry, in the result's (already deterministic)
    entry order.
nodes : ``array('q')``
    The entry nodes as **CSR node indexes** of the shared
    :class:`~repro.graph.csr.CompactGraph` compilation — both sides hold
    digest-verified copies of the same compilation, so indexes round-trip
    exactly and no node identifier is ever pickled.
counters : ``array('q')``
    :data:`COUNTERS_PER_QUERY` ints per query: the eight scalar
    :class:`QueryStats` counters followed by the four ``bound_wins``
    slots in :data:`BOUND_WIN_KEYS` order.
elapsed : ``array('d')``
    One wall-clock seconds value per query.

:meth:`ShardResultBlock.validate` checks the header against the buffer
lengths **before** any field is trusted — a truncated or corrupted block
fails loudly instead of misattributing entries to queries (the merger
calls it before it even looks at the shard's batch positions).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.types import QueryResult, QueryStats, RankedNode
from repro.errors import ParallelExecutionError

__all__ = [
    "BOUND_WIN_KEYS",
    "COUNTER_FIELDS",
    "COUNTERS_PER_QUERY",
    "ShardResultBlock",
    "ShardResultCodec",
]

#: The eight scalar int counters of :class:`QueryStats`, in wire order.
COUNTER_FIELDS = (
    "rank_refinements",
    "refinements_pruned",
    "refinement_nodes_settled",
    "tree_pops",
    "tree_pushes",
    "pruned_by_bound",
    "answered_by_index",
    "pruned_by_check_dictionary",
)

#: The four ``bound_wins`` components, in wire order.  ``record_bound_win``
#: only ever creates keys with value >= 1, so "slot is zero" and "key is
#: absent" coincide and the dict round-trips exactly.
BOUND_WIN_KEYS = ("parent", "height", "count", "index")

#: Ints per query in the ``counters`` buffer.
COUNTERS_PER_QUERY = len(COUNTER_FIELDS) + len(BOUND_WIN_KEYS)


@dataclass(frozen=True)
class ShardResultBlock:
    """One shard's results packed into flat buffers (see module docstring)."""

    num_queries: int
    k: int
    algorithm: str
    offsets: array
    ranks: array
    nodes: array
    counters: array
    elapsed: array

    # ------------------------------------------------------------------
    def payload_bytes(self) -> int:
        """Size of the flat entry/stats buffers in bytes.

        The honest transport measure the bench reports: the dense data
        that actually scales with the batch (pickle framing and the tiny
        fixed header are excluded).
        """
        return (
            self.offsets.itemsize * len(self.offsets)
            + self.ranks.itemsize * len(self.ranks)
            + self.nodes.itemsize * len(self.nodes)
            + self.counters.itemsize * len(self.counters)
            + self.elapsed.itemsize * len(self.elapsed)
            + len(self.algorithm)
        )

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the header against the buffer lengths; raise on mismatch.

        This must be (and is) called before any consumer trusts the
        block's contents — see the merger, which validates the block
        before it reads the shard's batch positions.

        Raises
        ------
        ParallelExecutionError
            When the offsets table, the entry buffers, or the stats
            buffers disagree with the header (a truncated or corrupted
            transport buffer).
        """
        if not isinstance(self.num_queries, int) or self.num_queries < 0:
            raise ParallelExecutionError(
                f"shard result block header is corrupt: num_queries="
                f"{self.num_queries!r}"
            )
        offsets = self.offsets
        if len(offsets) != self.num_queries + 1:
            raise ParallelExecutionError(
                f"shard result block offsets table has {len(offsets)} "
                f"entries for {self.num_queries} queries (want "
                f"{self.num_queries + 1})"
            )
        if offsets[0] != 0:
            raise ParallelExecutionError(
                f"shard result block offsets must start at 0, got {offsets[0]}"
            )
        for position in range(1, len(offsets)):
            if offsets[position] < offsets[position - 1]:
                raise ParallelExecutionError(
                    "shard result block offsets are not monotonic at "
                    f"query {position - 1}: {offsets[position - 1]} -> "
                    f"{offsets[position]}"
                )
        total_entries = offsets[-1]
        if len(self.ranks) != total_entries or len(self.nodes) != total_entries:
            raise ParallelExecutionError(
                f"shard result block entry buffers are truncated: offsets "
                f"declare {total_entries} entries but ranks={len(self.ranks)} "
                f"nodes={len(self.nodes)}"
            )
        if (
            self.counters is None
            or len(self.counters) != COUNTERS_PER_QUERY * self.num_queries
        ):
            have = None if self.counters is None else len(self.counters)
            raise ParallelExecutionError(
                f"shard result block per-query counters are truncated: "
                f"want {COUNTERS_PER_QUERY * self.num_queries} ints, "
                f"have {have}"
            )
        if self.elapsed is None or len(self.elapsed) != self.num_queries:
            have = None if self.elapsed is None else len(self.elapsed)
            raise ParallelExecutionError(
                f"shard result block elapsed buffer is truncated: want "
                f"{self.num_queries} doubles, have {have}"
            )


class ShardResultCodec:
    """Packs shard results into a :class:`ShardResultBlock` (worker side)
    and rebuilds :class:`QueryResult` objects from one (parent side)."""

    # ------------------------------------------------------------------
    @staticmethod
    def encode(results: Sequence[QueryResult], csr) -> ShardResultBlock:
        """Pack ``results`` (evaluated against ``csr``) into flat buffers."""
        index_of = csr.index_of
        offsets = array("q", [0])
        ranks = array("d")
        nodes = array("q")
        counters = array("q")
        elapsed = array("d")
        for result in results:
            for entry in result.entries:
                ranks.append(entry.rank)
                nodes.append(index_of(entry.node))
            offsets.append(len(ranks))
            stats = result.stats
            for field in COUNTER_FIELDS:
                counters.append(getattr(stats, field))
            bound_wins = stats.bound_wins
            for key in BOUND_WIN_KEYS:
                counters.append(bound_wins.get(key, 0))
            elapsed.append(stats.elapsed_seconds)

        first = results[0] if results else None
        return ShardResultBlock(
            num_queries=len(results),
            k=first.k if first is not None else 0,
            algorithm=first.algorithm if first is not None else "",
            offsets=offsets,
            ranks=ranks,
            nodes=nodes,
            counters=counters,
            elapsed=elapsed,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def decode(
        block: ShardResultBlock,
        csr,
        queries: Sequence,
        validated: bool = False,
    ) -> List[QueryResult]:
        """Rebuild one :class:`QueryResult` per query from ``block``.

        ``queries`` supplies the query nodes in shard order — taken from
        the *parent's* shard plan, never from worker-reported state.
        Entry order, node identity and rank values reproduce the worker's
        results bit for bit (ranks travel as IEEE doubles, which compare
        equal to the ints the refinement produces).  ``validated=True``
        skips the header re-check for callers (the merger) that already
        ran :meth:`ShardResultBlock.validate` on this block.

        Raises
        ------
        ParallelExecutionError
            When the block fails :meth:`ShardResultBlock.validate`, the
            query count disagrees, or an entry's node index is outside
            the compilation.
        """
        if not validated:
            block.validate()
        if len(queries) != block.num_queries:
            raise ParallelExecutionError(
                f"shard result block carries {block.num_queries} queries "
                f"but the plan assigned {len(queries)}"
            )
        num_nodes = csr.num_nodes
        node_at = csr.node_at
        offsets = block.offsets
        ranks = block.ranks
        nodes = block.nodes
        counters = block.counters
        elapsed = block.elapsed

        results: List[QueryResult] = []
        for position, query in enumerate(queries):
            entries = []
            for slot in range(offsets[position], offsets[position + 1]):
                node_index = nodes[slot]
                if not 0 <= node_index < num_nodes:
                    raise ParallelExecutionError(
                        f"shard result block entry {slot} names node index "
                        f"{node_index}, outside the compilation's "
                        f"[0, {num_nodes}) range"
                    )
                entries.append(RankedNode.make(node_at(node_index), ranks[slot]))
            stats = QueryStats()
            base = position * COUNTERS_PER_QUERY
            for offset, field in enumerate(COUNTER_FIELDS):
                setattr(stats, field, counters[base + offset])
            wins_base = base + len(COUNTER_FIELDS)
            for offset, key in enumerate(BOUND_WIN_KEYS):
                value = counters[wins_base + offset]
                if value:
                    stats.bound_wins[key] = value
            stats.elapsed_seconds = elapsed[position]
            results.append(
                QueryResult(
                    query=query,
                    k=block.k,
                    entries=entries,
                    stats=stats,
                    algorithm=block.algorithm,
                )
            )
        return results
