"""The flat-array shard result codec: round trips, edge cases, validation.

Covers the wire-format contract (entry order, rank values, node identity
and QueryStats all survive the array round trip), the degenerate shapes
(empty result sets, k exceeding the candidate count, empty shards), the
header-first validation that makes truncated buffers fail loudly before
any batch position is trusted, per-query stats surviving a parallel
batch at engine level, and the mid-batch worker-crash path carrying
shard position info.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from array import array
from dataclasses import replace

import pytest

from repro.core import ReverseKRanksEngine
from repro.errors import ParallelExecutionError, WorkerCrashError
from repro.graph import CompactGraph, Graph
from repro.parallel import (
    ShardOutput,
    ShardPlanner,
    ShardResultBlock,
    ShardResultCodec,
    WorkerPool,
    merge_shard_outputs,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
FAST_CONTEXT = "fork" if HAVE_FORK else None


@pytest.fixture(scope="module")
def islands_graph():
    """Two components: a 4-node cluster and a 3-node chain (plus a loner)."""
    graph = Graph(name="islands")
    for a, b, w in [(0, 1, 1.0), (1, 2, 1.5), (2, 3, 1.0), (0, 2, 2.0)]:
        graph.add_edge(a, b, w)
    graph.add_edge(10, 11, 1.0)
    graph.add_edge(11, 12, 2.0)
    graph.add_node(20)  # unreachable from everywhere
    return graph


def _batch(graph, queries, k, algorithm="dynamic"):
    engine = ReverseKRanksEngine(graph)
    return engine.compact_graph(), engine.query_many(queries, k, algorithm=algorithm)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_entries_round_trip_bit_identical(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        csr, results = _batch(random_gnp, queries, 4)
        block = ShardResultCodec.encode(results, csr)
        decoded = ShardResultCodec.decode(block, csr, queries)
        assert [r.query for r in decoded] == queries
        assert [r.k for r in decoded] == [r.k for r in results]
        assert [r.algorithm for r in decoded] == [r.algorithm for r in results]
        # Bit-identical entries: node identity, rank values, entry order.
        assert [
            [(e.node, e.rank) for e in r.entries] for r in decoded
        ] == [[(e.node, e.rank) for e in r.entries] for r in results]

    def test_per_query_stats_round_trip_exactly(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        engine = ReverseKRanksEngine(random_gnp)
        engine.build_index(num_hubs=3, capacity=8)
        csr = engine.compact_graph()
        # Indexed results also fill the index-only counters (answered by
        # the index, index bound wins), which no parallel differential
        # compares: worker replicas legitimately save different work.
        for algorithm in ("dynamic", "indexed"):
            results = engine.query_many(queries, 4, algorithm=algorithm)
            block = ShardResultCodec.encode(results, csr)
            decoded = ShardResultCodec.decode(block, csr, queries)
            assert [r.stats.as_dict() for r in decoded] == [
                r.stats.as_dict() for r in results
            ]
        assert any(r.stats.bound_wins.get("index") for r in results)


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
class TestEdgeCases:
    def test_empty_result_sets_round_trip(self, islands_graph):
        # Node 20 reaches nothing and nothing reaches it: entries == [].
        csr, results = _batch(islands_graph, [20], 2)
        assert results[0].entries == []
        block = ShardResultCodec.encode(results, csr)
        decoded = ShardResultCodec.decode(block, csr, [20])
        assert decoded[0].entries == []
        assert decoded[0].k == 2
        assert decoded[0].stats.as_dict() == results[0].stats.as_dict()

    def test_k_exceeding_candidate_count_round_trips_short_results(
        self, islands_graph
    ):
        # k=6 but query 10's component holds only 2 other nodes.
        csr, results = _batch(islands_graph, [10, 11], 6)
        assert all(0 < len(r.entries) < 6 for r in results)
        block = ShardResultCodec.encode(results, csr)
        decoded = ShardResultCodec.decode(block, csr, [10, 11])
        assert [
            [(e.node, e.rank) for e in r.entries] for r in decoded
        ] == [[(e.node, e.rank) for e in r.entries] for r in results]
        assert all(r.k == 6 for r in decoded)
        assert all(not r.is_full() for r in decoded)

    def test_empty_shard_encodes_and_decodes(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        block = ShardResultCodec.encode([], csr)
        block.validate()
        assert ShardResultCodec.decode(block, csr, []) == []


# ----------------------------------------------------------------------
# Header validation: truncated/corrupted buffers fail loudly
# ----------------------------------------------------------------------
class TestBlockValidation:
    @pytest.fixture()
    def block(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:4]
        csr, results = _batch(random_gnp, queries, 3)
        self.csr = csr
        self.queries = queries
        return ShardResultCodec.encode(results, csr)

    def test_valid_block_passes(self, block):
        block.validate()

    def test_truncated_ranks_buffer_fails(self, block):
        broken = replace(block, ranks=block.ranks[:-1])
        with pytest.raises(ParallelExecutionError, match="truncated"):
            broken.validate()

    def test_truncated_offsets_table_fails(self, block):
        broken = replace(block, offsets=block.offsets[:-1])
        with pytest.raises(ParallelExecutionError, match="offsets"):
            broken.validate()

    def test_non_monotonic_offsets_fail(self, block):
        twisted = array("q", block.offsets)
        twisted[1], twisted[2] = twisted[2] + 1, twisted[1]
        broken = replace(block, offsets=twisted)
        with pytest.raises(ParallelExecutionError):
            broken.validate()

    def test_lying_query_count_fails(self, block):
        broken = replace(block, num_queries=block.num_queries + 1)
        with pytest.raises(ParallelExecutionError, match="offsets"):
            broken.validate()

    def test_truncated_counters_fail(self, block):
        broken = replace(block, counters=block.counters[:-3])
        with pytest.raises(ParallelExecutionError, match="counters"):
            broken.validate()

    def test_out_of_range_node_index_fails_decode(self, block):
        poisoned = array("q", block.nodes)
        poisoned[0] = self.csr.num_nodes + 7
        broken = replace(block, nodes=poisoned)
        with pytest.raises(ParallelExecutionError, match="node index"):
            ShardResultCodec.decode(broken, self.csr, self.queries)
        poisoned[0] = -1  # negative aliasing must not slip through either
        with pytest.raises(ParallelExecutionError, match="node index"):
            ShardResultCodec.decode(broken, self.csr, self.queries)


# ----------------------------------------------------------------------
# Merge: header validated before positions are trusted (regression)
# ----------------------------------------------------------------------
class TestMergeValidatesHeaderFirst:
    def _encoded_output(self, graph, queries, positions, **overrides):
        csr, results = _batch(graph, queries, 3)
        block = ShardResultCodec.encode(results, csr)
        if overrides:
            block = replace(block, **overrides)
        return csr, ShardOutput(
            shard_index=0,
            positions=positions,
            results=block,
            queries=tuple(queries),
        )

    def test_truncated_block_fails_before_position_slotting(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:3]
        csr, output = self._encoded_output(random_gnp, queries, (0, 1, 2))
        truncated = replace(output.results, ranks=output.results.ranks[:-1])
        # Give the shard deliberately poisonous positions: if the merger
        # trusted them before validating the block, it would raise the
        # out-of-range position error instead of the truncation error.
        poisoned = ShardOutput(
            shard_index=0,
            positions=(0, 1, 99),
            results=truncated,
            queries=output.queries,
        )
        with pytest.raises(ParallelExecutionError, match="truncated"):
            merge_shard_outputs([poisoned], batch_size=3, csr=csr)

    def test_position_count_mismatch_fails_before_decode(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:3]
        csr, output = self._encoded_output(random_gnp, queries, (0, 1))
        with pytest.raises(ParallelExecutionError, match="positions"):
            merge_shard_outputs([output], batch_size=3, csr=csr)

    def test_encoded_shard_without_csr_fails(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:2]
        _, output = self._encoded_output(random_gnp, queries, (0, 1))
        with pytest.raises(ParallelExecutionError, match="compilation"):
            merge_shard_outputs([output], batch_size=2)

    def test_well_formed_encoded_shards_merge_in_order(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:4]
        engine = ReverseKRanksEngine(random_gnp)
        csr = engine.compact_graph()
        results = engine.query_many(queries, 3)
        even = ShardResultCodec.encode([results[0], results[2]], csr)
        odd = ShardResultCodec.encode([results[1], results[3]], csr)
        merged = merge_shard_outputs(
            [
                ShardOutput(1, (1, 3), odd, queries=(queries[1], queries[3])),
                ShardOutput(0, (0, 2), even, queries=(queries[0], queries[2])),
            ],
            batch_size=4,
            csr=csr,
        )
        assert [r.query for r in merged.results] == queries
        assert merged.ipc_bytes == even.payload_bytes() + odd.payload_bytes()
        assert merged.stats.rank_refinements == sum(
            r.stats.rank_refinements for r in results
        )


# ----------------------------------------------------------------------
# Engine-level per-query stats
# ----------------------------------------------------------------------
class TestEngineStatsKnob:
    @needs_fork
    def test_parallel_per_query_results_carry_exact_stats(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        with ReverseKRanksEngine(random_gnp) as engine:
            sequential = engine.query_many(queries, 3)
            parallel = engine.query_many(
                queries, 3, workers=2, worker_context=FAST_CONTEXT
            )
        for expected, actual in zip(sequential, parallel):
            expected_view = expected.stats.as_dict()
            actual_view = actual.stats.as_dict()
            expected_view.pop("elapsed_seconds")
            actual_view.pop("elapsed_seconds")
            assert expected_view == actual_view


# ----------------------------------------------------------------------
# Worker crash mid-batch carries shard position info
# ----------------------------------------------------------------------
@needs_fork
class TestCrashPositions:
    def test_worker_crash_error_names_lost_batch_positions(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        # crash_retries=0: fail-fast, so the crash surfaces as the typed
        # error under test instead of being healed in place.
        with WorkerPool(
            csr, workers=2, context=FAST_CONTEXT, crash_retries=0
        ) as pool:
            victim = pool.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.time() + 5.0
            while pool._processes[0].is_alive() and time.time() < deadline:
                time.sleep(0.05)
            plan = ShardPlanner(2).plan(queries)
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.run_batch(plan, 3, "dynamic")
        # Round-robin over 2 shards: shard 0 (worker 0) held the even
        # positions; the crash must name exactly those.
        assert excinfo.value.worker_id == 0
        assert excinfo.value.positions == (0, 2, 4)
        assert "0, 2, 4" in str(excinfo.value)

    def test_startup_crash_has_no_positions(self):
        error = WorkerCrashError(1, -9, detail="during startup")
        assert error.positions is None
