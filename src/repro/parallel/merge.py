"""Deterministic reassembly of sharded batch results.

Workers finish in nondeterministic order; this module makes the batch
outcome independent of that order.  Each shard's results arrive already
decoded (the pool decodes every reply against its own plan as it
arrives, :class:`~repro.parallel.codec.ShardResultCodec`); they are
slotted back by the batch positions their shard carried, with every
position checked to be in range and filled exactly once, the per-query
:class:`~repro.core.types.QueryStats` are combined into one batch-level
view, and the workers' hub-index learning deltas are returned sorted by
shard index — so a last-writer-wins merge into the master index applies
them in the same order every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.types import QueryResult, QueryStats
from repro.errors import ParallelExecutionError

__all__ = ["ShardOutput", "ParallelBatchResult", "merge_shard_outputs"]


@dataclass(frozen=True)
class ShardOutput:
    """What one worker returned for one shard of a batch, decoded."""

    shard_index: int
    positions: Tuple[int, ...]
    results: Sequence[QueryResult]
    delta: Optional[object] = None  # a HubIndexDelta when the shard learned
    trace: Optional[dict] = None  # worker-side span tree (traced batches)


@dataclass
class ParallelBatchResult:
    """A merged parallel batch: ordered results plus batch-level aggregates."""

    #: One result per query, in the original batch order.
    results: List[QueryResult]
    #: All per-query counters accumulated into one batch-level QueryStats.
    stats: QueryStats
    #: The shards' learning deltas in shard order (empty unless an
    #: indexed batch ran on workers holding an index).
    deltas: List[object] = field(default_factory=list)
    #: How many shards carried work.
    shards: int = 0
    #: Pickled reply bytes that crossed the process boundary (the pool
    #: sets it; 0 for a merge of in-process results).
    ipc_bytes: int = 0
    #: Worker-side span trees in shard order (empty unless the batch was
    #: traced); the engine grafts them under its dispatch span.
    worker_traces: List[dict] = field(default_factory=list)


def merge_shard_outputs(
    outputs: Sequence[ShardOutput],
    batch_size: int,
) -> ParallelBatchResult:
    """Merge shard outputs (any arrival order) into one ordered batch result.

    Raises
    ------
    ParallelExecutionError
        When a shard's positions and results disagree in length, or the
        shard outputs do not cover each of the ``batch_size`` positions
        exactly once.
    """
    slots: List[Optional[QueryResult]] = [None] * batch_size
    filled = 0
    stats = QueryStats()
    ordered = sorted(outputs, key=lambda output: output.shard_index)
    for output in ordered:
        results = output.results
        if len(output.positions) != len(results):
            raise ParallelExecutionError(
                f"shard {output.shard_index} returned {len(results)} "
                f"results for {len(output.positions)} positions"
            )
        for position, result in zip(output.positions, results):
            if not 0 <= position < batch_size:
                raise ParallelExecutionError(
                    f"shard {output.shard_index} returned out-of-range batch "
                    f"position {position} (batch size {batch_size})"
                )
            if slots[position] is not None:
                raise ParallelExecutionError(
                    f"batch position {position} was returned by two shards"
                )
            slots[position] = result
            filled += 1
            stats.merge(result.stats)
    if filled != batch_size:
        missing = [position for position, slot in enumerate(slots) if slot is None]
        raise ParallelExecutionError(
            f"shard outputs left {len(missing)} batch positions unanswered "
            f"(first missing: {missing[:5]})"
        )
    deltas = [output.delta for output in ordered if output.delta is not None]
    traces = [output.trace for output in ordered if output.trace is not None]
    return ParallelBatchResult(
        results=slots,
        stats=stats,
        deltas=deltas,
        shards=len(ordered),
        worker_traces=traces,
    )
