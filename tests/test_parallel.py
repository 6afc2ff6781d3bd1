"""The repro.parallel subsystem: planner, merger, pool, engine integration.

Process-spawning tests default to the ``fork`` start method (cheap on the
CI's Linux runners) and run one representative round trip under ``spawn``
to prove start-method safety; both are skipped automatically on platforms
that lack them.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core import AlgorithmKind, QueryStats, ReverseKRanksEngine
from repro.core.types import QueryResult, RankedNode
from repro.core.validation import results_equivalent
from repro.errors import ParallelExecutionError, WorkerCrashError
from repro.graph import CompactGraph, Graph
from repro.parallel import (
    ShardOutput,
    ShardPlanner,
    WorkerPool,
    merge_shard_outputs,
)

from conftest import sample_queries

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
HAVE_SPAWN = "spawn" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
needs_spawn = pytest.mark.skipif(not HAVE_SPAWN, reason="spawn start method unavailable")

#: Start method used by the bulk of the process tests (fast to start).
FAST_CONTEXT = "fork" if HAVE_FORK else None

#: The README's pool-exhaustion rows: (failpoint armed before the pool
#: starts, or ``None`` to SIGKILL a live worker; batch deadline; how many
#: sequential fallbacks the batch takes).
POOL_FAILURE_ROWS = {
    "crash-budget-exhausted-once": (None, None, 0),
    "crash-budget-exhausted-twice": ("worker.before_task=crash", None, 1),
    "batch-deadline-blown": ("worker.before_result=sleep(30)", 0.5, 1),
}


# ----------------------------------------------------------------------
# ShardPlanner
# ----------------------------------------------------------------------
class TestShardPlanner:
    def test_round_robin_covers_every_position_once(self):
        plan = ShardPlanner(3).plan(list("abcdefgh"))
        positions = sorted(
            position for shard in plan.shards for position in shard.positions
        )
        assert positions == list(range(8))
        assert plan.num_queries == 8
        assert [len(shard) for shard in plan.shards] == [3, 3, 2]

    def test_round_robin_preserves_query_position_pairing(self):
        batch = ["q0", "q1", "q2", "q3", "q4"]
        plan = ShardPlanner(2).plan(batch)
        for shard in plan.shards:
            for position, query in zip(shard.positions, shard.queries):
                assert batch[position] == query

    def test_invalid_parameters_raise_typed_errors(self):
        with pytest.raises(ParallelExecutionError):
            ShardPlanner(0)
        with pytest.raises(ParallelExecutionError):
            ShardPlanner(True)


# ----------------------------------------------------------------------
# Merger
# ----------------------------------------------------------------------
def _result(query, rank_refinements=1):
    stats = QueryStats(rank_refinements=rank_refinements)
    return QueryResult(
        query=query, k=1, entries=[RankedNode.make("n", 1)], stats=stats
    )


class TestMergeShardOutputs:
    def test_reassembles_input_order_regardless_of_arrival(self):
        outputs = [
            ShardOutput(1, (1, 3), [_result("b"), _result("d")]),
            ShardOutput(0, (0, 2), [_result("a"), _result("c")]),
        ]
        merged = merge_shard_outputs(outputs, batch_size=4)
        assert [result.query for result in merged.results] == ["a", "b", "c", "d"]
        assert merged.shards == 2

    def test_aggregates_stats(self):
        outputs = [
            ShardOutput(0, (0,), [_result("a", rank_refinements=3)]),
            ShardOutput(1, (1,), [_result("b", rank_refinements=4)]),
        ]
        merged = merge_shard_outputs(outputs, batch_size=2)
        assert merged.stats.rank_refinements == 7

    def test_deltas_come_back_in_shard_order(self):
        outputs = [
            ShardOutput(2, (2,), [_result("c")], delta="late"),
            ShardOutput(0, (0,), [_result("a")], delta="early"),
            ShardOutput(1, (1,), [_result("b")], delta=None),
        ]
        merged = merge_shard_outputs(outputs, batch_size=3)
        assert merged.deltas == ["early", "late"]

    def test_missing_duplicate_and_out_of_range_positions_fail(self):
        with pytest.raises(ParallelExecutionError):
            merge_shard_outputs([ShardOutput(0, (0,), [_result("a")])], batch_size=2)
        with pytest.raises(ParallelExecutionError):
            merge_shard_outputs(
                [
                    ShardOutput(0, (0,), [_result("a")]),
                    ShardOutput(1, (0,), [_result("b")]),
                ],
                batch_size=2,
            )
        with pytest.raises(ParallelExecutionError):
            merge_shard_outputs([ShardOutput(0, (5,), [_result("a")])], batch_size=2)
        with pytest.raises(ParallelExecutionError):
            merge_shard_outputs(
                [ShardOutput(0, (0, 1), [_result("a")])], batch_size=2
            )


# ----------------------------------------------------------------------
# Engine-level parallel execution (the tentpole's front door)
# ----------------------------------------------------------------------
@needs_fork
class TestEngineParallel:
    @pytest.mark.parametrize("kind", ["naive", "static", "dynamic"])
    def test_parallel_matches_sequential_bit_identical(self, random_gnp, kind):
        queries = sorted(random_gnp.nodes(), key=repr)[:8]
        with ReverseKRanksEngine(random_gnp) as engine:
            sequential = engine.query_many(queries, 4, algorithm=kind)
            parallel = engine.query_many(
                queries, 4, algorithm=kind, workers=2,
                worker_context=FAST_CONTEXT,
            )
        assert [result.as_pairs() for result in parallel] == [
            result.as_pairs() for result in sequential
        ]

    def test_parallel_answers_serialise_like_sequential(self):
        """Ranks keep their type across the pool: ``json.dumps`` agrees.

        On a 30-node ring a coalesced pool batch must serve ``3``, not
        ``3.0``, for the same query a sequential batch answers.
        """
        graph = Graph(name="ring-30")
        for node in range(30):
            graph.add_edge(node, (node + 1) % 30, 1.0 + node % 3)
        queries = [1, 7, 13, 19, 25, 4]
        with ReverseKRanksEngine(graph) as engine:
            sequential = engine.query_many(queries, 3, algorithm="dynamic")
            parallel = engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
            assert engine.last_batch_ipc_bytes > 0  # it ran on the pool
        assert json.dumps([r.as_pairs() for r in parallel]) == json.dumps(
            [r.as_pairs() for r in sequential]
        )

    def test_parallel_bichromatic_matches_sequential(self, bichromatic_case):
        queries = sorted(bichromatic_case.facilities, key=repr)[:5]
        with ReverseKRanksEngine(
            bichromatic_case.graph, partition=bichromatic_case
        ) as engine:
            sequential = engine.query_many(queries, 3, algorithm="dynamic")
            parallel = engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
        assert [result.as_pairs() for result in parallel] == [
            result.as_pairs() for result in sequential
        ]

    def test_indexed_parallel_learns_back_into_master(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:8]
        with ReverseKRanksEngine(random_gnp) as engine:
            engine.build_index(num_hubs=3, capacity=8)
            before = engine.index.num_known_ranks
            parallel = engine.query_many(
                queries, 4, algorithm="indexed", workers=2,
                worker_context=FAST_CONTEXT,
            )
            after = engine.index.num_known_ranks
            sequential = engine.query_many(queries, 4, algorithm="indexed")
        assert after > before  # the workers' refinements were merged back
        for expected, actual in zip(sequential, parallel):
            assert results_equivalent(expected, actual)
            assert expected.rank_values() == actual.rank_values()

    def test_merged_index_answers_like_sequentially_warmed(self, random_gnp):
        """The ISSUE's parity requirement, end to end through the pool."""
        queries = sorted(random_gnp.nodes(), key=repr)[:8]
        probes = sorted(random_gnp.nodes(), key=repr)[8:14]

        engine_seq = ReverseKRanksEngine(random_gnp)
        engine_seq.build_index(num_hubs=3, capacity=8)
        engine_seq.query_many(queries, 4, algorithm="indexed")

        with ReverseKRanksEngine(random_gnp) as engine_par:
            engine_par.build_index(num_hubs=3, capacity=8)
            engine_par.query_many(
                queries, 4, algorithm="indexed", workers=2,
                worker_context=FAST_CONTEXT,
            )
            for probe in probes:
                warmed = engine_seq.query(probe, 4, algorithm="indexed")
                merged = engine_par.query(probe, 4, algorithm="indexed")
                assert results_equivalent(warmed, merged)
                assert warmed.rank_values() == merged.rank_values()

    def test_parallel_aggregates_batch_stats(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        with ReverseKRanksEngine(random_gnp) as engine:
            results = engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
            aggregated = engine.last_batch_stats
        assert aggregated is not None
        assert aggregated.rank_refinements == sum(
            result.stats.rank_refinements for result in results
        )
        assert aggregated.tree_pops == sum(
            result.stats.tree_pops for result in results
        )

    def test_pool_persists_across_batches_and_invalidates_on_mutation(
        self, random_gnp
    ):
        graph = random_gnp.copy()
        queries = sorted(graph.nodes(), key=repr)[:6]
        with ReverseKRanksEngine(graph) as engine:
            engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
            first_pids = engine._pool.worker_pids
            engine.query_many(
                queries, 3, algorithm="static", workers=2,
                worker_context=FAST_CONTEXT,
            )
            assert engine._pool.worker_pids == first_pids  # reused

            graph.add_edge(0, 13, 0.5)
            parallel = engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
            assert engine._pool.worker_pids != first_pids  # rebuilt
            sequential = engine.query_many(queries, 3, algorithm="dynamic")
            assert [result.as_pairs() for result in parallel] == [
                result.as_pairs() for result in sequential
            ]

    def test_workers_validation_and_sequential_fallbacks(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:4]
        engine = ReverseKRanksEngine(random_gnp)
        with pytest.raises(ParallelExecutionError):
            engine.query_many(queries, 2, workers=0)
        with pytest.raises(ParallelExecutionError):
            engine.query_many(queries, 2, workers=True)
        # workers=1 and single-query batches never start a pool.
        engine.query_many(queries, 2, workers=1)
        engine.query_many(queries[:1], 2, workers=2)
        assert engine._pool is None

    @pytest.mark.parametrize(
        "timeout", [0, -1.0, float("nan"), float("inf"), True, "1"]
    )
    def test_bad_batch_timeout_rejected_before_pool_work(
        self, random_gnp, timeout
    ):
        # Accepted, 0 and -1.0 each cost two pool failures (two such
        # calls open the circuit breaker) and nan meant no deadline.
        queries = sorted(random_gnp.nodes(), key=repr)[:4]
        engine = ReverseKRanksEngine(random_gnp)
        with pytest.raises(ParallelExecutionError, match="batch_timeout"):
            engine.query_many(
                queries, 2, workers=2, worker_context=FAST_CONTEXT,
                batch_timeout=timeout,
            )
        assert engine.pool_failures == 0
        assert engine._pool is None
        assert not engine.parallel_degraded

    @pytest.mark.parametrize("row", list(POOL_FAILURE_ROWS))
    def test_pool_failure_table(self, random_gnp, row):
        """The README's pool-exhaustion rows, one per failure.

        A batch-level pool failure is retried once on a fresh pool; a
        second failure falls back to the sequential path.  Either way
        the answers equal a fresh sequential engine's.  The crash budget
        is 0 so that a single worker death exhausts it.
        """
        from repro import faults

        failpoint, batch_timeout, fallbacks = POOL_FAILURE_ROWS[row]
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        reference = ReverseKRanksEngine(random_gnp).query_many(
            queries, 3, algorithm="dynamic"
        )
        fallback = {"path": "sequential_fallback"}
        try:
            with ReverseKRanksEngine(random_gnp) as engine:
                engine.pool_crash_retries = 0
                if failpoint is None:
                    pool = engine.prepare_parallel(2, FAST_CONTEXT)
                    first_pids = set(pool.worker_pids)
                    os.kill(pool.worker_pids[0], signal.SIGKILL)
                    deadline = time.time() + 5.0
                    while (
                        pool._processes[0].is_alive()
                        and time.time() < deadline
                    ):
                        time.sleep(0.05)
                else:
                    # Armed before any pool exists, so every forked worker
                    # of the attempt and of the retry inherits it.
                    faults.configure(failpoint)
                registry = engine.registry
                before = registry.sample("repro_query_batches_total", fallback)
                results = engine.query_many(
                    queries, 3, algorithm="dynamic", workers=2,
                    worker_context=FAST_CONTEXT, batch_timeout=batch_timeout,
                )
                after = registry.sample("repro_query_batches_total", fallback)
                assert engine.parallel_retries == 1
                assert after - before == fallbacks
                if fallbacks:
                    assert engine._pool is None  # dead pools pruned
                    assert engine.last_batch_ipc_bytes == 0
                else:
                    assert engine.pool_health()["worker_crashes"] >= 1
                    assert not set(engine._pool.worker_pids) & first_pids
                if batch_timeout is not None:
                    assert registry.sample("repro_worker_timeouts_total") >= 1
                    assert engine.pool_health()["worker_timeouts"] >= 1
        finally:
            faults.clear()
        assert [r.as_pairs() for r in results] == [
            r.as_pairs() for r in reference
        ]
        for expected, actual in zip(reference, results):
            expected_view = expected.stats.as_dict()
            actual_view = actual.stats.as_dict()
            expected_view.pop("elapsed_seconds")
            actual_view.pop("elapsed_seconds")
            assert expected_view == actual_view

    def test_engine_heals_worker_crash_in_place(self, random_gnp):
        # Default semantics: a mid-batch worker death is absorbed by the
        # pool (respawn + re-dispatch) and the batch still answers
        # bit-identically to sequential.
        queries = sorted(random_gnp.nodes(), key=repr)[:8]
        with ReverseKRanksEngine(random_gnp) as engine:
            engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
            os.kill(engine._pool.worker_pids[0], signal.SIGKILL)
            deadline = time.time() + 5.0
            while engine._pool._processes[0].is_alive() and time.time() < deadline:
                time.sleep(0.05)
            healed = engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
            health = engine.pool_health()
            assert health["pool_active"]
            assert health["worker_crashes"] >= 1
            assert health["worker_respawns"] >= 1
            assert not health["degraded"]
            sequential = engine.query_many(queries, 3, algorithm="dynamic")
        assert [result.as_pairs() for result in healed] == [
            result.as_pairs() for result in sequential
        ]

    def test_engine_sequential_fallback_and_circuit_breaker(self, random_gnp):
        from repro import faults

        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        try:
            # Every worker dies before its first task; healing disabled so
            # each parallel attempt fails immediately.
            faults.configure("worker.before_task=crash")
            with ReverseKRanksEngine(random_gnp) as engine:
                engine.pool_crash_retries = 0
                engine.pool_failure_limit = 2
                sequential = ReverseKRanksEngine(random_gnp).query_many(
                    queries, 3, algorithm="dynamic"
                )
                # Attempt + retry both fail -> breaker opens -> sequential.
                degraded = engine.query_many(
                    queries, 3, algorithm="dynamic", workers=2,
                    worker_context=FAST_CONTEXT,
                )
                assert [r.as_pairs() for r in degraded] == [
                    r.as_pairs() for r in sequential
                ]
                assert engine._pool is None  # dead pool pruned
                assert engine.parallel_degraded
                assert engine.pool_failures >= 2
                assert engine.sequential_fallbacks == 1
                assert engine.parallel_retries == 1
                # Breaker open: no parallel attempt, no pool, same answers.
                again = engine.query_many(
                    queries, 3, algorithm="dynamic", workers=2,
                    worker_context=FAST_CONTEXT,
                )
                assert engine._pool is None
                assert engine.sequential_fallbacks == 2
                assert [r.as_pairs() for r in again] == [
                    r.as_pairs() for r in sequential
                ]
                # Clearing the faults + resetting the breaker restores
                # parallel execution.
                faults.clear()
                engine.reset_parallel_breaker()
                healed = engine.query_many(
                    queries, 3, algorithm="dynamic", workers=2,
                    worker_context=FAST_CONTEXT,
                )
                assert engine._pool is not None
                assert not engine.parallel_degraded
                assert [r.as_pairs() for r in healed] == [
                    r.as_pairs() for r in sequential
                ]
        finally:
            faults.clear()

    def test_close_pool_is_idempotent_and_context_managed(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:4]
        engine = ReverseKRanksEngine(random_gnp)
        engine.query_many(
            queries, 2, algorithm="dynamic", workers=2,
            worker_context=FAST_CONTEXT,
        )
        pool = engine._pool
        assert pool is not None and not pool.is_closed
        engine.close_pool()
        assert pool.is_closed and engine._pool is None
        engine.close_pool()  # idempotent


# ----------------------------------------------------------------------
# WorkerPool lifecycle and failure surfacing
# ----------------------------------------------------------------------
@needs_fork
class TestWorkerPool:
    def test_requires_compact_graph(self, random_gnp):
        with pytest.raises(ParallelExecutionError):
            WorkerPool(random_gnp, workers=2)

    def test_rejects_bad_workers_and_context(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        with pytest.raises(ParallelExecutionError):
            WorkerPool(csr, workers=0)
        with pytest.raises(ParallelExecutionError):
            WorkerPool(csr, workers=2, context="not-a-method")

    def test_graceful_shutdown_reaps_processes(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        with WorkerPool(csr, workers=2, context=FAST_CONTEXT) as pool:
            processes = list(pool._processes)
            assert all(process.is_alive() for process in processes)
        assert pool.is_closed
        for process in processes:
            assert not process.is_alive()
        pool.close()  # idempotent
        plan = ShardPlanner(2).plan(sorted(random_gnp.nodes(), key=repr)[:4])
        with pytest.raises(ParallelExecutionError):
            pool.run_batch(plan, 2, "dynamic")

    def test_killed_worker_surfaces_as_typed_crash(self, random_gnp):
        # crash_retries=0 restores the fail-fast contract this test pins.
        csr = CompactGraph.from_graph(random_gnp)
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
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
            assert excinfo.value.worker_id == 0
            assert excinfo.value.exitcode == -signal.SIGKILL
            assert excinfo.value.positions  # the lost shard is named

    def test_pool_heals_killed_worker_and_redispatches(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        queries = sorted(random_gnp.nodes(), key=repr)[:8]
        reference = ReverseKRanksEngine(random_gnp).query_many(
            queries, 3, algorithm="dynamic"
        )
        with WorkerPool(csr, workers=2, context=FAST_CONTEXT) as pool:
            os.kill(pool.worker_pids[0], signal.SIGKILL)
            deadline = time.time() + 5.0
            while pool._processes[0].is_alive() and time.time() < deadline:
                time.sleep(0.05)
            plan = ShardPlanner(2).plan(queries)
            outcome = pool.run_batch(plan, 3, "dynamic")
            assert pool.crash_count >= 1
            assert pool.respawn_count >= 1
            assert pool.health()["generations"][0] >= 1
            assert [r.as_pairs() for r in outcome.results] == [
                r.as_pairs() for r in reference
            ]
            # The healed pool keeps serving.
            again = pool.run_batch(plan, 3, "dynamic")
            assert [r.as_pairs() for r in again.results] == [
                r.as_pairs() for r in reference
            ]

    def test_result_channels_are_per_worker_and_replaced_on_respawn(
        self, random_gnp
    ):
        # Crash isolation: each worker writes to its own result queue
        # (a SIGKILL mid-flush can leave a queue's cross-process write
        # lock held forever — a shared queue would then wedge every
        # future writer, including the replacement's "ready" message),
        # and a respawn must discard the casualty's possibly-poisoned
        # channel, not reuse it.
        csr = CompactGraph.from_graph(random_gnp)
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        with WorkerPool(csr, workers=2, context=FAST_CONTEXT) as pool:
            assert len(pool._result_queues) == 2
            assert pool._result_queues[0] is not pool._result_queues[1]
            poisoned = pool._result_queues[0]
            os.kill(pool.worker_pids[0], signal.SIGKILL)
            deadline = time.time() + 5.0
            while pool._processes[0].is_alive() and time.time() < deadline:
                time.sleep(0.05)
            plan = ShardPlanner(2).plan(queries)
            outcome = pool.run_batch(plan, 3, "dynamic")
            assert len(outcome.results) == len(queries)
            assert pool.respawn_count >= 1
            assert pool._result_queues[0] is not poisoned

    def test_wedged_respawn_is_killed_within_respawn_timeout(
        self, random_gnp
    ):
        from repro import faults

        csr = CompactGraph.from_graph(random_gnp)
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        try:
            with WorkerPool(
                csr, workers=2, context="fork", respawn_timeout=0.5
            ) as pool:
                os.kill(pool.worker_pids[0], signal.SIGKILL)
                deadline = time.time() + 5.0
                while pool._processes[0].is_alive() and time.time() < deadline:
                    time.sleep(0.05)
                # Armed only now: the running workers never see it, but a
                # fork-respawned replacement inherits the registry and
                # stalls before reporting ready — the bounded respawn
                # must kill it and fail the batch in seconds, not wait
                # out the 60s startup budget.
                faults.configure("worker.start=sleep(30)")
                plan = ShardPlanner(2).plan(queries)
                start = time.monotonic()
                with pytest.raises(WorkerCrashError) as excinfo:
                    pool.run_batch(plan, 3, "dynamic")
                assert time.monotonic() - start < 10.0
                assert "respawning the worker failed" in str(excinfo.value)
                assert "did not report ready" in str(excinfo.value)
                assert not pool._processes[0].is_alive()  # no leaked child
        finally:
            faults.clear()

    def test_batch_deadline_kills_stuck_worker_and_pool_survives(
        self, random_gnp
    ):
        from repro import faults
        from repro.errors import WorkerTimeoutError

        csr = CompactGraph.from_graph(random_gnp)
        queries = sorted(random_gnp.nodes(), key=repr)[:8]
        reference = ReverseKRanksEngine(random_gnp).query_many(
            queries, 3, algorithm="dynamic"
        )
        try:
            # Each worker stalls once, on its second result — batch 1 is
            # clean, batch 2 hangs, the respawned replacements (counters
            # reset) serve batch 3 cleanly again.
            faults.configure("worker.before_result=sleep(30)#2*1")
            with WorkerPool(csr, workers=2, context=FAST_CONTEXT) as pool:
                plan = ShardPlanner(2).plan(queries)
                pool.run_batch(plan, 3, "dynamic")
                start = time.monotonic()
                with pytest.raises(WorkerTimeoutError) as excinfo:
                    pool.run_batch(plan, 3, "dynamic", timeout=1.0)
                assert time.monotonic() - start < 20.0  # no 30s hang
                assert excinfo.value.worker_ids
                assert excinfo.value.positions
                assert pool.timeout_count == 1
                outcome = pool.run_batch(plan, 3, "dynamic", timeout=30.0)
                assert [r.as_pairs() for r in outcome.results] == [
                    r.as_pairs() for r in reference
                ]
        finally:
            faults.clear()

    def test_failpoint_error_travels_as_remote_traceback(self, random_gnp):
        from repro import faults

        csr = CompactGraph.from_graph(random_gnp)
        try:
            faults.configure("worker.before_task=error*1")
            with WorkerPool(csr, workers=1, context=FAST_CONTEXT) as pool:
                plan = ShardPlanner(1).plan(
                    sorted(random_gnp.nodes(), key=repr)[:2]
                )
                with pytest.raises(ParallelExecutionError) as excinfo:
                    pool.run_batch(plan, 2, "dynamic")
                assert "FailpointError" in str(excinfo.value)
                # *1 disarmed the failpoint: the worker survives and the
                # next batch is clean.
                outcome = pool.run_batch(plan, 2, "dynamic")
                assert len(outcome.results) == 2
        finally:
            faults.clear()

    def test_worker_exception_carries_remote_traceback(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        with WorkerPool(csr, workers=1, context=FAST_CONTEXT) as pool:
            # k beyond the engine-side validation the worker re-runs.
            plan = ShardPlanner(1).plan(sorted(random_gnp.nodes(), key=repr)[:2])
            with pytest.raises(ParallelExecutionError) as excinfo:
                pool.run_batch(plan, 10_000, "dynamic")
            assert "InvalidKError" in str(excinfo.value)
            # The worker survives a shard error and serves the next batch.
            outcome = pool.run_batch(plan, 2, "dynamic")
            assert len(outcome.results) == 2


# ----------------------------------------------------------------------
# Spawn start method (one representative round trip; slower to start)
# ----------------------------------------------------------------------
@needs_spawn
def test_spawn_round_trip_matches_sequential(random_gnp):
    queries = sample_queries(random_gnp, count=3)
    with ReverseKRanksEngine(random_gnp) as engine:
        sequential = engine.query_many(queries, 3, algorithm="dynamic")
        parallel = engine.query_many(
            queries, 3, algorithm="dynamic", workers=2, worker_context="spawn"
        )
        assert engine._pool.start_method == "spawn"
    assert [result.as_pairs() for result in parallel] == [
        result.as_pairs() for result in sequential
    ]
