"""In-process chaos: failpoint-killed workers under concurrent clients.

The compact, deterministic sibling of ``scripts/chaos_smoke.py`` (which
CI runs at larger scale with probabilistic failpoints).  Every phase
asserts the headline property end to end: whatever the failpoints do to
the worker pool, every response the server releases is bit-identical to
a sequential reference, and no request hangs.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro import faults
from repro.core import ReverseKRanksEngine
from repro.serve import QueryServer, ServeClient, ServeConfig

from conftest import _gnp_graph, sample_queries

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

pytestmark = pytest.mark.skipif(
    not HAVE_FORK, reason="chaos suite needs the fork start method"
)


def shm_segments():
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return set()
    return {n for n in names if n.startswith(("repro_", "psm_"))}


@pytest.fixture(autouse=True)
def _disarm_failpoints():
    yield
    faults.clear()


@pytest.fixture
def reference(random_gnp):
    engine = ReverseKRanksEngine(random_gnp)
    engine.build_index(num_hubs=3, capacity=16)
    nodes = sorted(random_gnp.nodes())
    results = engine.query_many(nodes, 4, algorithm="dynamic")
    return {node: result.as_pairs() for node, result in zip(nodes, results)}


def drive(host, port, expected, num_clients, requests_per_client):
    """Concurrent verifying load; returns (mismatches, failures, slowest)."""
    nodes = sorted(expected)
    lock = threading.Lock()
    mismatches, failures, slowest = [], [], [0.0]

    def client_loop(client_id):
        try:
            with ServeClient(
                host=host, port=port, timeout=60.0,
                retries=50, backoff_s=0.005,
            ) as client:
                cursor = client_id
                for _ in range(requests_per_client):
                    batch = [nodes[(cursor + j) % len(nodes)] for j in range(2)]
                    cursor += 2
                    started = time.perf_counter()
                    answers = client.query_many(batch, k=4, algorithm="dynamic")
                    elapsed = time.perf_counter() - started
                    with lock:
                        slowest[0] = max(slowest[0], elapsed)
                        for query, answer in zip(batch, answers):
                            if answer != expected[query]:
                                mismatches.append(query)
        except BaseException as exc:  # noqa: BLE001 - tallied for the assert
            with lock:
                failures.append(repr(exc))

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return mismatches, failures, slowest[0]


def test_chaos_phases_serve_correctly_and_heal(random_gnp, reference):
    """Crash storm -> stall past the deadline -> recovery, one server.

    Phase 1 arms a deterministic every-second-task crash: both workers
    (and every respawned generation) die repeatedly, the batch crash
    budget trips, the engine retries and ultimately degrades to
    sequential — all while every released response stays bit-identical.
    Phase 2 arms a one-shot 30s stall; the 1s batch deadline must kill
    the stuck worker and fail over fast.  Phase 3 clears the chaos and
    requires a healthy, non-degraded pool answering correctly again.
    """
    shm_before = shm_segments()
    engine = ReverseKRanksEngine(random_gnp)
    engine.build_index(num_hubs=3, capacity=16)
    engine.parallel_min_batch = 1
    config = ServeConfig(
        workers=2,
        worker_context="fork",
        max_pending=256,
        batch_timeout_s=1.0,
    )
    with QueryServer(engine, config=config) as server:
        host, port = server.address

        # Phase 1: every worker dies on its second task, generation
        # after generation, until the engine gives up on the pool.
        faults.configure("worker.before_task=crash#2", seed=7)
        mismatches, failures, slowest = drive(host, port, reference, 4, 4)
        assert mismatches == []
        assert failures == []
        assert slowest < 30.0
        with ServeClient(host=host, port=port) as probe:
            health = probe.health()
        assert health["worker_crashes"] >= 2
        assert health["worker_respawns"] >= 1

        # Phase 2: fresh pool; each worker hangs once, on its second
        # result, 30x longer than the batch deadline.
        faults.clear()
        engine.close_pool()
        engine.reset_parallel_breaker()
        faults.configure("worker.before_result=sleep(30)#2*1", seed=7)
        mismatches, failures, slowest = drive(host, port, reference, 2, 4)
        assert mismatches == []
        assert failures == []
        assert slowest < 15.0  # deadline resolved it, not the 30s nap
        with ServeClient(host=host, port=port) as probe:
            health = probe.health()
        assert health["worker_timeouts"] >= 1

        # Phase 3: chaos off — healthy, non-degraded, still correct.
        faults.clear()
        engine.close_pool()
        engine.reset_parallel_breaker()
        mismatches, failures, slowest = drive(host, port, reference, 4, 2)
        assert mismatches == []
        assert failures == []
        with ServeClient(host=host, port=port) as probe:
            health = probe.health()
        assert health["degraded"] is False
        assert health["pool_active"] is True
        assert health["pool_alive"] == 2
        assert health["healthy"] is True

    assert shm_segments() - shm_before == set()


def test_chaos_worker_crash_during_graph_sync():
    """A worker dying mid graph-broadcast degrades the sync, never the answers.

    apply_updates ships the overlay rows and the sharded index repair to
    the live pool; arming a crash on each worker's second task makes
    both workers die exactly when that broadcast arrives.  The engine must
    absorb the WorkerCrashError (drop the pool, report
    ``pool_synced=False``), keep serving bit-identical sequential
    answers, rebuild a healthy pool on the next parallel batch, and sync
    the *next* update in place again once the chaos is gone.
    """
    shm_before = shm_segments()
    graph = _gnp_graph(22, 0.2, seed=19, directed=False)
    shadow = graph.copy()
    engine = ReverseKRanksEngine(graph)
    engine.build_index(num_hubs=3, capacity=8)
    engine.parallel_min_batch = 1
    queries = sorted(graph.nodes())[:6]

    def check_against_fresh():
        reference = ReverseKRanksEngine(shadow)
        reference.compact_graph()
        expected = reference.query_many(queries, 3, algorithm="dynamic")
        actual = engine.query_many(queries, 3, algorithm="dynamic")
        for want, got in zip(expected, actual):
            assert got.as_pairs() == want.as_pairs(), want.query
            left, right = want.stats.as_dict(), got.stats.as_dict()
            left.pop("elapsed_seconds")
            right.pop("elapsed_seconds")
            assert left == right, want.query

    with engine:
        # Armed before the pool forks (workers inherit the failpoint
        # table at spawn): task 1 per worker is the warm query shard,
        # the graph broadcast is task 2 — both workers die holding it.
        faults.configure("worker.before_task=crash#2", seed=11)
        engine.query_many(
            queries, 3, algorithm="dynamic", workers=2, worker_context="fork"
        )
        assert engine._pool is not None
        edges = sorted(graph.edges())
        report = engine.apply_updates(
            [("remove_edge", edges[0][0], edges[0][1])]
        )
        shadow.remove_edge(edges[0][0], edges[0][1])
        assert report.applied == 1
        assert not report.pool_synced
        assert engine._pool is None  # degraded, not wedged
        faults.clear()
        check_against_fresh()

        # A fresh pool serves the mutated graph bit-identically...
        parallel = engine.query_many(
            queries, 3, algorithm="dynamic", workers=2, worker_context="fork"
        )
        sequential = engine.query_many(queries, 3, algorithm="dynamic")
        assert [r.as_pairs() for r in parallel] == [
            r.as_pairs() for r in sequential
        ]
        # ...and with the chaos gone the next update syncs in place.
        pids = sorted(p.pid for p in engine._pool._processes)
        report = engine.apply_updates(
            [("add_edge", edges[1][0], edges[2][1], 0.7)]
        )
        shadow.add_edge(edges[1][0], edges[2][1], 0.7)
        assert report.pool_synced
        assert sorted(p.pid for p in engine._pool._processes) == pids
        check_against_fresh()

    assert shm_segments() - shm_before == set()
