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
* :mod:`repro.parallel.codec` — :class:`ShardResultCodec`, the flat-array
  transport of shard results (ranks as doubles, entry nodes as CSR
  indexes, per-query offsets, per-query stats counters) that replaced
  per-object result pickling;
* :mod:`repro.parallel.merge` — deterministic reassembly of shard
  results in input order (decoding the flat blocks against the parent's
  compilation, header-validated first), with aggregated
  :class:`~repro.core.types.QueryStats` and the workers' learning deltas
  ready for :meth:`~repro.core.hub_index.HubIndex.merge_delta`.

The high-level entry point is
:meth:`repro.core.engine.ReverseKRanksEngine.query_many` with
``workers=N`` — the engine owns the pool, keys it by the compilation
its workers hold, and merges the learned rank deltas back into its
master index after every indexed batch.
"""

from repro.parallel.codec import ShardResultBlock, ShardResultCodec
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
    "ShardResultBlock",
    "ShardResultCodec",
    "ParallelBatchResult",
    "merge_shard_outputs",
    "WorkerPool",
]
