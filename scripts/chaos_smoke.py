#!/usr/bin/env python
"""CI chaos harness: failpoint-killed workers under concurrent load.

The fault-tolerance acceptance run.  An in-process query server (real
sockets, real batcher, a real 2-way worker pool, a durable journal) is
driven by a verifying closed-loop load — every response is compared
bit-for-bit against a sequential reference engine — while deterministic
failpoints (:mod:`repro.faults`) attack it in three phases:

1. **Crash storm** — ``worker.before_task=crash@0.25#2``: each worker
   (and each respawned generation, on its own seeded schedule) has a 25%
   chance per task of dying by SIGKILL.  The pool must heal in place,
   re-dispatching lost shards; when a batch exhausts its crash budget
   the engine retries on a fresh pool and ultimately falls back to
   bit-identical sequential execution.  Every response must still be
   correct; at least two worker deaths must be observed.

2. **Stall** — ``worker.before_result=sleep(60)#3*1``: a worker hangs
   far past the batch deadline.  The deadline must kill the stuck
   worker and fail over; no request may take anywhere near the stall
   length.  At least one batch timeout must be observed.

3. **Recovery** — failpoints cleared, circuit breaker reset: the server
   must answer from a healthy, non-degraded pool again.

Afterwards the server is shut down and /dev/shm is checked for leaked
``repro_*`` / ``psm_*`` segments.  Any mismatched response, any request
exceeding the hang limit, any missing health counter, or any leak exits
non-zero.  The surrounding CI job adds ``timeout-minutes`` as the
outer hang watchdog.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import faults  # noqa: E402
from repro.core import ReverseKRanksEngine  # noqa: E402
from repro.core.hub_index import HubIndex  # noqa: E402
from repro.errors import ParallelExecutionError  # noqa: E402
from repro.serve.bootstrap import parse_fixture  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.journal import DurableIndexStore  # noqa: E402
from repro.serve.server import QueryServer, ServeConfig  # noqa: E402

#: A request taking longer than this means the deadline machinery failed
#: (the injected stall is 60s; a handled timeout resolves in a couple of
#: batch_timeout rounds).
HANG_LIMIT_S = 30.0


def shm_segments():
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return set()
    return {n for n in names if n.startswith(("repro_", "psm_"))}


def build_reference(graph, queries, k, algorithm):
    """Sequential ground truth: node -> [(node, rank), ...]."""
    engine = ReverseKRanksEngine(graph)
    engine.build_index(num_hubs=3, capacity=16)
    results = engine.query_many(list(queries), k, algorithm=algorithm)
    return {
        query: result.as_pairs() for query, result in zip(queries, results)
    }


def drive_load(
    host,
    port,
    expected,
    k,
    algorithm,
    num_clients,
    requests_per_client,
    queries_per_request,
):
    """Verifying closed loop: every response must equal the reference.

    Returns ``(queries_sent, mismatches, failures, max_request_s)``.
    Client-level retries absorb overload backpressure; anything else a
    request raises is a failure (the server must keep answering through
    the chaos, not shed errors).
    """
    nodes = sorted(expected)
    lock = threading.Lock()
    mismatches = []
    failures = []
    max_elapsed = [0.0]
    sent = [0]

    def client_loop(client_id):
        try:
            with ServeClient(
                host=host, port=port, timeout=120.0,
                retries=100, backoff_s=0.005,
            ) as client:
                cursor = client_id
                for _ in range(requests_per_client):
                    batch = [
                        nodes[(cursor + j) % len(nodes)]
                        for j in range(queries_per_request)
                    ]
                    cursor += queries_per_request
                    started = time.perf_counter()
                    answers = client.query_many(batch, k=k, algorithm=algorithm)
                    elapsed = time.perf_counter() - started
                    with lock:
                        sent[0] += len(batch)
                        max_elapsed[0] = max(max_elapsed[0], elapsed)
                        for query, answer in zip(batch, answers):
                            if answer != expected[query]:
                                mismatches.append((client_id, query))
        except BaseException as exc:  # noqa: BLE001 - tallied, not raised
            with lock:
                failures.append(f"client {client_id}: {exc!r}")

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sent[0], mismatches, failures, max_elapsed[0]


def run_update_crash_phase(seed, summary, problems):
    """Phase 4: a worker dies holding the graph-sync broadcast.

    ``engine.apply_updates`` ships each mutation batch to the live pool
    as its overlay rows and a share of the index repair.  With a crash
    armed on every second worker task, the pool dies exactly when that
    broadcast arrives; the engine must degrade (drop the pool, report
    ``pool_synced=False``) without surfacing an error, keep answering
    bit-identically to a from-scratch engine over an identically-mutated
    shadow graph, and — once the chaos is cleared — sync the next update
    into a fresh pool in place.  After each update the repaired hub index
    (explored by the master alone after the crash, sharded over the pool
    after the recovery) must equal a same-hub rebuild and answer indexed
    queries as the rebuild does, and its stored distances must equal the
    rebuild's (``dist_mismatches``): after the crash the master resumes
    the hubs itself from the prefixes it computed.  Then the master
    learns on its own (one indexed ``query()``) and on the pool (one
    indexed batch), and a third update lands on the learned index.
    After every in-place update, and after the learning, every worker's
    replica must equal the master (``replica_mismatches``;
    ``replica_checked_updates`` counts the updates checked), so the
    phase fails at the update whose overlay delta or row trims broke a
    replica.  Last, two events that leave the replicas no longer
    mirroring the master close the pool: swapping the index
    (``adopt_index`` of a copy) and a batch whose shard raises (a
    one-shot failpoint, armed before the pool that takes it forks).
    After each, the next indexed batch must run on new workers
    (``pool_restarts`` counts them), and the next in-place update must
    leave every replica equal to the master.
    """
    workload = parse_fixture("gnp:60:13")
    graph = workload.graph
    shadow = graph.copy()
    engine = ReverseKRanksEngine(graph)
    engine.build_index(num_hubs=3, capacity=8)
    engine.parallel_min_batch = 1
    queries = sorted(graph.nodes())[:10]
    phase = {
        "mismatches": 0, "index_mismatches": 0, "dist_mismatches": 0,
        "degrades": 0, "in_place_syncs": 0, "replica_mismatches": 0,
        "replica_checked_updates": 0, "pool_restarts": 0,
    }

    def signature(index):
        # ``shadow`` counts its versions from its copy, so drop them.
        state = index.export_state()
        state.pop("graph_version")
        return state

    def verify():
        reference = ReverseKRanksEngine(shadow)
        backend = reference.compact_graph()
        expected = reference.query_many(queries, 6, algorithm="dynamic")
        actual = engine.query_many(queries, 6, algorithm="dynamic")
        rebuilt = HubIndex.build(
            shadow, capacity=8, hubs=engine.index.hubs, backend=backend
        )
        if signature(engine.index) != signature(rebuilt):
            phase["index_mismatches"] += 1
        # The stored distances feed the next repair's bound.
        if engine.index._dists != rebuilt._dists:
            phase["dist_mismatches"] += 1
        reference.adopt_index(rebuilt)
        expected += reference.query_many(queries, 6, algorithm="indexed")
        # A copy of the repaired index answers: indexed queries learn,
        # and a learned index would no longer equal the next rebuild.
        probe = ReverseKRanksEngine(
            graph, index=HubIndex.from_state(graph, engine.index.export_state())
        )
        actual += probe.query_many(queries, 6, algorithm="indexed")
        for want, got in zip(expected, actual):
            if want.as_pairs() != got.as_pairs():
                phase["mismatches"] += 1

    def check_replicas(after):
        master = (
            engine.compact_graph().content_digest(),
            engine.index.content_digest(),
        )
        differing = sum(
            digests != master for digests in engine._pool.replica_digests()
        )
        if differing:
            phase["replica_mismatches"] += differing
            problems.append(
                f"update_crash: {differing} worker replicas differed from "
                f"the master after {after}"
            )

    def indexed_batch():
        engine.query_many(
            queries, 6, algorithm="indexed", workers=2, worker_context="fork"
        )

    def restarted_batch(pids, after):
        indexed_batch()
        if set(engine._pool.worker_pids) & set(pids):
            problems.append(
                f"update_crash: the indexed batch after {after} ran on "
                "the workers from before it"
            )
        else:
            phase["pool_restarts"] += 1

    def update_in_place(ops, label):
        report = engine.apply_updates(ops)
        for op in ops:
            getattr(shadow, op[0])(*op[1:])
        if not report.pool_synced:
            problems.append(
                f"update_crash: {label} did not sync the live pool in place"
            )
            return
        phase["in_place_syncs"] += 1
        phase["replica_checked_updates"] += 1
        check_replicas(label)

    try:
        with engine:
            # Armed before the pool forks: task 1 per worker is the warm
            # query shard, the graph broadcast is task 2.
            faults.configure("worker.before_task=crash#2", seed=seed)
            engine.query_many(
                queries, 6, algorithm="dynamic",
                workers=2, worker_context="fork",
            )
            edges = sorted(graph.edges())
            report = engine.apply_updates(
                [("remove_edge", edges[0][0], edges[0][1])]
            )
            shadow.remove_edge(edges[0][0], edges[0][1])
            if report.pool_synced or engine._pool is not None:
                problems.append(
                    "update_crash: broadcast to crashed workers did not "
                    "degrade the pool"
                )
            else:
                phase["degrades"] += 1
            faults.clear()
            verify()

            # Chaos off: fresh pool, and the next update must sync in
            # place instead of tearing it down.
            engine.query_many(
                queries, 6, algorithm="dynamic",
                workers=2, worker_context="fork",
            )
            update_in_place(
                [("add_edge", edges[1][0], edges[2][1], 0.7)],
                "the post-recovery update",
            )
            verify()

            # The master's own learning reaches the replicas as a delta.
            engine.query(queries[0], 6, algorithm="indexed")
            engine.query_many(
                queries, 6, algorithm="indexed",
                workers=2, worker_context="fork",
            )
            check_replicas("the indexed query and batch")
            update_in_place(
                [
                    ("remove_edge", edges[3][0], edges[3][1]),
                    ("add_edge", edges[4][0], edges[5][1], 0.9),
                ],
                "the update after the learning",
            )

            # Swapping the index closes the pool: the next indexed batch
            # starts fresh workers seeded with the adopted index.
            pids = engine._pool.worker_pids
            engine.adopt_index(
                HubIndex.from_state(graph, engine.index.export_state())
            )
            restarted_batch(pids, "the index swap")
            update_in_place(
                [("add_edge", edges[6][0], edges[7][1], 0.8)],
                "the update after the index swap",
            )

            # So does a shard that raises: its workers may have learned
            # what the master never merged.  The failpoint reaches only
            # workers forked after it is armed.
            engine.close_pool()
            faults.configure("worker.before_result=error*1", seed=seed)
            pids = engine.prepare_parallel(2, "fork").worker_pids
            faults.clear()
            try:
                indexed_batch()
            except ParallelExecutionError:
                pass
            else:
                problems.append(
                    "update_crash: the batch armed to raise did not raise"
                )
            restarted_batch(pids, "the raised shard")
            update_in_place(
                [("remove_edge", edges[8][0], edges[8][1])],
                "the update after the raised shard",
            )
    finally:
        faults.clear()
    if phase["mismatches"]:
        problems.append(
            f"update_crash: {phase['mismatches']} responses differed from "
            "the mutated-shadow reference"
        )
    if phase["index_mismatches"]:
        problems.append(
            "update_crash: the repaired index differed from a same-hub "
            f"rebuild after {phase['index_mismatches']} of 2 updates"
        )
    if phase["dist_mismatches"]:
        problems.append(
            "update_crash: the repaired index's stored distances differed "
            f"from a same-hub rebuild's after {phase['dist_mismatches']} of "
            "2 updates"
        )
    summary["phases"]["update_crash"] = phase


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python scripts/chaos_smoke.py")
    parser.add_argument("--fixture", default="gnp:120:11")
    parser.add_argument("--k", type=int, default=6)
    parser.add_argument("--algorithm", default="dynamic")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--requests", type=int, default=13, help="phase-1 requests per client"
    )
    parser.add_argument("--queries-per-request", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--batch-timeout", type=float, default=2.0)
    args = parser.parse_args(argv)

    if "fork" not in multiprocessing.get_all_start_methods():
        print("SKIP: chaos smoke needs the fork start method", flush=True)
        return 0

    shm_before = shm_segments()
    workload = parse_fixture(args.fixture)
    graph = workload.graph
    nodes = sorted(graph.nodes())
    expected = build_reference(graph, nodes, args.k, args.algorithm)

    engine = ReverseKRanksEngine(graph)
    engine.build_index(num_hubs=3, capacity=16)
    engine.parallel_min_batch = 1  # every coalesced batch rides the pool
    summary = {"fixture": args.fixture, "phases": {}}

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        store = DurableIndexStore(Path(tmp) / "state")
        store.install(engine.index)
        config = ServeConfig(
            workers=2,
            worker_context="fork",
            max_batch=32,
            max_pending=max(64, args.clients * 4),
            batch_timeout_s=args.batch_timeout,
        )
        server = QueryServer(engine, config=config, store=store).start()
        problems = []
        try:
            host, port = server.address

            def run_phase(name, clients, requests):
                sent, mismatches, failures, slowest = drive_load(
                    host, port, expected, args.k, args.algorithm,
                    clients, requests, args.queries_per_request,
                )
                with ServeClient(host=host, port=port) as probe:
                    health = probe.health()
                summary["phases"][name] = {
                    "queries": sent,
                    "mismatches": len(mismatches),
                    "failures": failures,
                    "slowest_request_s": round(slowest, 3),
                    "worker_crashes": health["worker_crashes"],
                    "worker_respawns": health["worker_respawns"],
                    "worker_timeouts": health["worker_timeouts"],
                    "degraded": health["degraded"],
                }
                if mismatches:
                    problems.append(
                        f"{name}: {len(mismatches)} responses differed "
                        "from the sequential reference"
                    )
                if failures:
                    problems.append(f"{name}: request failures: {failures}")
                if slowest > HANG_LIMIT_S:
                    problems.append(
                        f"{name}: a request took {slowest:.1f}s "
                        f"(hang limit {HANG_LIMIT_S}s)"
                    )
                return health

            # Phase 1: crash storm.
            faults.configure(
                "worker.before_task=crash@0.25#2", seed=args.seed
            )
            health = run_phase("crash_storm", args.clients, args.requests)
            if health["worker_crashes"] < 2:
                problems.append(
                    "crash_storm: expected >= 2 worker deaths, saw "
                    f"{health['worker_crashes']}"
                )

            # Phase 2: a worker stalls past the batch deadline.  Fresh
            # pool + reset breaker so the phase tests the deadline, not
            # phase 1's leftovers.
            engine.close_pool()
            engine.reset_parallel_breaker()
            faults.configure(
                "worker.before_result=sleep(60)#3*1", seed=args.seed
            )
            health = run_phase("stall", max(2, args.clients // 2), 4)
            if health["worker_timeouts"] < 1:
                problems.append(
                    "stall: expected >= 1 batch deadline kill, saw "
                    f"{health['worker_timeouts']}"
                )

            # Phase 3: chaos off; the server must be healthy again.
            faults.clear()
            engine.close_pool()
            engine.reset_parallel_breaker()
            health = run_phase("recovery", args.clients, 4)
            if health["degraded"]:
                problems.append("recovery: engine still degraded")
            if not health["pool_active"] or health["pool_alive"] != 2:
                problems.append(
                    f"recovery: pool not fully alive: {health}"
                )
        finally:
            faults.clear()
            server.stop()
            store.close()

    # Phase 4: worker crash during an incremental-update broadcast
    # (self-contained engine; the server phases above keep their
    # pre-built reference answers, which mutations would invalidate).
    run_update_crash_phase(args.seed, summary, problems)

    leaked = shm_segments() - shm_before
    if leaked:
        problems.append(f"leaked /dev/shm segments: {sorted(leaked)}")
    summary["problems"] = problems
    json.dump(summary, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if problems:
        print("CHAOS SMOKE FAILED", file=sys.stderr)
        return 1
    print("chaos smoke passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
