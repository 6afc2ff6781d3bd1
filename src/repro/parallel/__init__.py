"""Sharded multiprocess query execution with mergeable hub-index learning.

Reverse k-ranks queries are independent of each other, and the compact CSR
backend (:class:`~repro.graph.csr.CompactGraph`) is frozen, array-backed
and picklable — which makes batches embarrassingly parallel *except* for
one piece of shared mutable state: the hub index keeps learning from every
indexed refinement (Algorithm 4).  This package supplies the execution
substrate that exploits the former and reconciles the latter:

* :mod:`repro.parallel.planner` — :class:`ShardPlanner`, deterministic
  round-robin batch chunking;
* :mod:`repro.parallel.worker` — the spawn-safe worker process entry
  point (a private engine per worker, seeded once from the base
  compilation, its overlay rows and a hub-index snapshot, then kept in
  step with the master by deltas);
* :mod:`repro.parallel.pool` — :class:`WorkerPool`, the persistent
  process pool with startup barrier, typed crash surfacing and graceful
  shutdown;
* :mod:`repro.parallel.codec` — :class:`ShardResultCodec`, the reply
  format of a query shard: one pickle of its
  :class:`~repro.core.types.QueryResult` list, decoded on the master
  against its own plan;
* :mod:`repro.parallel.merge` — deterministic reassembly of the decoded
  shard results in input order, with aggregated
  :class:`~repro.core.types.QueryStats` and the workers' learning deltas
  ready for :meth:`~repro.core.hub_index.HubIndex.merge_delta`.

The high-level entry point is
:meth:`repro.core.engine.ReverseKRanksEngine.query_many` with
``workers=N`` — the engine owns the pool, keys it by the compilation
its workers hold, and merges the learned rank deltas back into its
master index after every indexed batch.
"""

from repro.parallel.codec import ShardResultCodec
from repro.parallel.merge import (
    ParallelBatchResult,
    ShardOutput,
    merge_shard_outputs,
)
from repro.parallel.planner import Shard, ShardPlan, ShardPlanner
from repro.parallel.pool import WorkerPool

__all__ = [
    "Shard",
    "ShardPlan",
    "ShardPlanner",
    "ShardOutput",
    "ShardResultCodec",
    "ParallelBatchResult",
    "merge_shard_outputs",
    "WorkerPool",
]
