"""The shard reply codec: round trips, edge cases, decode refusals.

Covers the reply contract (entries, rank values *and their types*, every
QueryStats counter, ``k`` and the algorithm label survive one pickle of
the shard's results), the degenerate shapes (empty result sets, k
exceeding the candidate count, empty shards), the decode's refusals
(bytes that do not unpickle, a count or query sequence that differs from
the plan's shard, at codec and at pool level), the merge's position
checks on decoded results, per-query stats surviving a parallel batch at
engine level, and the mid-batch worker-crash path carrying shard
position info.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time

import pytest

from repro.core import ReverseKRanksEngine
from repro.errors import ParallelExecutionError, WorkerCrashError
from repro.graph import CompactGraph, Graph
from repro.parallel import (
    ShardOutput,
    ShardPlanner,
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
    return ReverseKRanksEngine(graph).query_many(queries, k, algorithm=algorithm)


def _round_trip(results, queries):
    return ShardResultCodec.decode(ShardResultCodec.encode(results), queries)


def _entries(results):
    """Per result, ``(node, rank, type(rank))`` in entry order."""
    return [
        [(entry.node, entry.rank, type(entry.rank)) for entry in result.entries]
        for result in results
    ]


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_entries_round_trip_bit_identical(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        results = _batch(random_gnp, queries, 4)
        decoded = _round_trip(results, queries)
        assert [r.query for r in decoded] == queries
        assert [r.k for r in decoded] == [r.k for r in results]
        assert [r.algorithm for r in decoded] == [r.algorithm for r in results]
        # Bit-identical entries: node identity, rank values and types,
        # entry order.
        assert _entries(decoded) == _entries(results)
        assert {type(e.rank) for r in decoded for e in r.entries} == {int}

    def test_per_query_stats_round_trip_exactly(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        engine = ReverseKRanksEngine(random_gnp)
        engine.build_index(num_hubs=3, capacity=8)
        # Indexed results also fill the index-only counters (answered by
        # the index, index bound wins), which no parallel differential
        # compares: worker replicas legitimately save different work.
        for algorithm in ("dynamic", "indexed"):
            results = engine.query_many(queries, 4, algorithm=algorithm)
            decoded = _round_trip(results, queries)
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
        results = _batch(islands_graph, [20], 2)
        assert results[0].entries == []
        decoded = _round_trip(results, [20])
        assert decoded[0].entries == []
        assert decoded[0].k == 2
        assert decoded[0].stats.as_dict() == results[0].stats.as_dict()

    def test_k_exceeding_candidate_count_round_trips_short_results(
        self, islands_graph
    ):
        # k=6 but query 10's component holds only 2 other nodes.
        results = _batch(islands_graph, [10, 11], 6)
        assert all(0 < len(r.entries) < 6 for r in results)
        decoded = _round_trip(results, [10, 11])
        assert _entries(decoded) == _entries(results)
        assert all(r.k == 6 for r in decoded)
        assert all(not r.is_full() for r in decoded)

    def test_empty_shard_encodes_and_decodes(self):
        assert _round_trip([], []) == []


# ----------------------------------------------------------------------
# Decode refusals: the master trusts its plan, not the reply
# ----------------------------------------------------------------------
class TestDecodeRefusals:
    @pytest.fixture()
    def shard(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:4]
        results = _batch(random_gnp, queries, 3)
        return queries, results, ShardResultCodec.encode(results)

    def test_garbage_bytes_fail(self, shard):
        queries, _, _ = shard
        for garbage in (b"", b"not a pickle", None):
            with pytest.raises(ParallelExecutionError, match="unpickle"):
                ShardResultCodec.decode(garbage, queries)
        # Bytes that unpickle, but not to a result list.
        for stranger in ({"results": []}, [1, 2, 3, 4]):
            with pytest.raises(ParallelExecutionError, match="shard reply"):
                ShardResultCodec.decode(pickle.dumps(stranger), queries)

    def test_truncated_payload_fails(self, shard):
        queries, _, payload = shard
        for cut in (len(payload) - 1, len(payload) // 2, 1):
            with pytest.raises(ParallelExecutionError, match="unpickle"):
                ShardResultCodec.decode(payload[:cut], queries)

    def test_count_mismatch_fails(self, shard):
        queries, results, payload = shard
        with pytest.raises(ParallelExecutionError, match="assigned 3 queries"):
            ShardResultCodec.decode(payload, queries[:-1])
        short = ShardResultCodec.encode(results[:-1])
        with pytest.raises(ParallelExecutionError, match="carries 3 results"):
            ShardResultCodec.decode(short, queries)

    def test_reordered_queries_fail(self, shard):
        queries, _, payload = shard
        with pytest.raises(ParallelExecutionError, match="plan assigned"):
            ShardResultCodec.decode(payload, queries[::-1])

    def test_foreign_queries_fail(self, shard, random_gnp):
        queries, _, payload = shard
        stranger = next(node for node in random_gnp.nodes() if node not in queries)
        with pytest.raises(ParallelExecutionError, match="shard position 2"):
            ShardResultCodec.decode(payload, queries[:2] + [stranger] + queries[3:])

    @needs_fork
    def test_pool_refuses_a_reply_that_differs_from_its_plan(
        self, random_gnp, monkeypatch
    ):
        # Forked workers inherit the patched encoder: every shard replies
        # with its results in reverse order.
        monkeypatch.setattr(
            ShardResultCodec,
            "encode",
            staticmethod(lambda results: pickle.dumps(list(results)[::-1])),
        )
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        with ReverseKRanksEngine(random_gnp) as engine:
            with pytest.raises(ParallelExecutionError, match="plan assigned"):
                engine.query_many(
                    queries, 3, workers=2, worker_context=FAST_CONTEXT
                )
            # A batch that raised closes the pool, and reports no bytes.
            assert engine._pool is None
            assert engine.last_batch_ipc_bytes == 0


# ----------------------------------------------------------------------
# Merge: position checks on decoded results
# ----------------------------------------------------------------------
class TestMergePositions:
    def test_position_count_mismatch_fails(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:3]
        output = ShardOutput(0, (0, 1), _batch(random_gnp, queries, 3))
        with pytest.raises(ParallelExecutionError, match="positions"):
            merge_shard_outputs([output], batch_size=3)

    def test_decoded_shards_merge_in_order(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:4]
        results = _batch(random_gnp, queries, 3)
        even = _round_trip([results[0], results[2]], [queries[0], queries[2]])
        odd = _round_trip([results[1], results[3]], [queries[1], queries[3]])
        merged = merge_shard_outputs(
            [ShardOutput(1, (1, 3), odd), ShardOutput(0, (0, 2), even)],
            batch_size=4,
        )
        assert [r.query for r in merged.results] == queries
        assert _entries(merged.results) == _entries(results)
        assert merged.ipc_bytes == 0  # only the pool counts reply bytes
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
            assert engine.last_batch_ipc_bytes > 0
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
