"""Worker hub-index replicas: what the master knows must reach the pool.

Hub rows cross the process boundary by two routes only.  A snapshot
(``export_state``) ships when a worker process starts: at pool start and
when a worker is respawned.  Everything else travels as deltas: each
worker's shard learning is forwarded to the other workers, graph updates
shard the index repair over the workers, and the learning of every
indexed query the master answers in-process is forwarded to all of them.
What leaves the replicas no longer mirroring the master — ``build_index``,
``adopt_index``, a batch whose shard raised — closes the pool, and the
next parallel call starts a fresh one.  After any mix of these the
replicas of a live pool equal the master (``WorkerPool.replica_digests``)
and the snapshot counter counts the pool starts and respawns.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import signal
import threading
from array import array

import pytest

from repro import faults
from repro.core import ReverseKRanksEngine
from repro.core.hub_index import HubIndex, HubIndexDelta
from repro.core.validation import results_equivalent
from repro.errors import ParallelExecutionError
from repro.parallel import ShardPlanner
from repro.parallel.pool import WorkerPool
from repro.serve import DurableIndexStore, QueryServer, ServeClient, ServeConfig

from conftest import _gnp_graph, road_lattice, road_traffic, sample_queries

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="fork start method unavailable"
)

#: Start method for the process tests (fast to start on CI's Linux).
FAST_CONTEXT = "fork" if HAVE_FORK else None


class TestRevisionCounter:
    def test_revision_counts_every_learning_call(self, random_gnp):
        index = HubIndex(random_gnp, capacity=8, hubs=[0])
        base = index.revision
        index.record_rank(1, 2, 3)
        assert index.revision == base + 1
        index.record_exploration(1, 10)
        assert index.revision == base + 2

    def test_merge_delta_advances_revision(self, random_gnp):
        index = HubIndex(random_gnp, capacity=8, hubs=[0])
        base = index.revision
        index.merge_delta(
            HubIndexDelta(ranks={(1, 2): 3, (2, 3): 4}, explorations={1: 5})
        )
        assert index.revision == base + 3

    def test_revision_not_serialised(self, random_gnp):
        index = HubIndex(random_gnp, capacity=8, hubs=[0])
        index.record_rank(1, 2, 3)
        clone = HubIndex.from_state(random_gnp, index.export_state())
        # The clone's counter starts from its own rebuild, not the
        # donor's live value — revisions are object-local.
        assert clone.num_known_ranks == index.num_known_ranks


@needs_fork
class TestPoolIndexSync:
    def build_engine(self, graph):
        engine = ReverseKRanksEngine(graph)
        engine.build_index(num_hubs=3, capacity=16)
        return engine

    def test_sequential_learning_reaches_workers(self, random_gnp):
        """Master-side learning between parallel batches reaches the workers."""
        queries = sample_queries(random_gnp, 6)
        engine = self.build_engine(random_gnp)
        with engine:
            pool = engine.prepare_parallel(2, FAST_CONTEXT)
            pids_before = pool.worker_pids
            syncs = engine.registry.get("repro_pool_index_syncs_total")
            # Learn on the master only: a sequential indexed batch.
            before = engine.index.revision
            engine.query_many(queries, 4, algorithm="indexed")
            assert engine.index.revision > before
            assert pool.replica_digests() == [_master_digests(engine)] * 2
            engine.query_many(
                queries, 5, algorithm="indexed", workers=2,
                worker_context=FAST_CONTEXT,
            )
            assert pool.replica_digests() == [_master_digests(engine)] * 2
            # No snapshot but the pool start's, and no restarted worker.
            assert syncs.labels(kind="snapshot").value == 1
            assert pool.worker_pids == pids_before

    def test_master_learning_is_forwarded_as_a_delta(self, random_gnp):
        """``query()`` learning is queued for every worker, whole, as one delta.

        The engine's own log nests inside the caller's, as the query
        server's journal log does: the caller's log still receives
        everything the query learned.
        """
        query = sample_queries(random_gnp, 1)[0]
        engine = self.build_engine(random_gnp)
        with engine:
            pool = engine.prepare_parallel(2, FAST_CONTEXT)
            engine.index.start_learning_log()
            engine.query(query, 4, algorithm="indexed")
            learned = engine.index.pop_learning_log()
            assert learned
            assert [
                [pickle.dumps(item) for item in pending]
                for pending in pool._pending
            ] == [[pickle.dumps(learned)]] * 2
            assert pool.replica_digests() == [_master_digests(engine)] * 2
            syncs = engine.registry.get("repro_pool_index_syncs_total")
            assert syncs.labels(kind="snapshot").value == 1

    def test_swapped_index_object_is_always_shipped(self, random_gnp):
        """adopt_index closes the pool; the next batch starts a fresh one
        seeded with the adopted index.

        The adopted index may have a different capacity, and the
        worker-side k validation runs against *its* snapshot — serving
        from the old one would wrongly reject (or mis-bound) queries.
        Until then there is no pool to forward the master's learning
        to: the snapshot carries it.
        """
        queries = sample_queries(random_gnp, 6)
        engine = self.build_engine(random_gnp)
        twin = ReverseKRanksEngine(random_gnp)
        with engine:
            pool = engine.prepare_parallel(2, FAST_CONTEXT)
            replacement = HubIndex.build(random_gnp, num_hubs=4, capacity=32)
            engine.adopt_index(replacement)
            twin.adopt_index(HubIndex.build(random_gnp, num_hubs=4, capacity=32))
            assert engine._pool is None and pool.is_closed
            for each in (engine, twin):
                each.query(queries[0], 20, algorithm="indexed")
            _assert_restarted(
                engine, twin, queries, pool.worker_pids, _snapshots(engine),
                k=20,
            )
            assert engine._pool.index is replacement
            assert engine._pool.replica_digests() == [
                _master_digests(engine)
            ] * 2

    def test_synced_parallel_matches_sequential_reference(self, random_gnp):
        """End to end: answers with forwarded learning match a sequential engine's.

        Both engines learn through the same batch sequence; the parallel
        one interleaves master-only learning with worker batches.
        Indexed parallel answers are rank-value equivalent to sequential
        ones (boundary ties may order differently — the documented
        contract).
        """
        queries = sample_queries(random_gnp, 6)
        reference = self.build_engine(random_gnp)
        engine = self.build_engine(random_gnp)
        with engine:
            for k, parallel in ((4, True), (5, False), (6, True)):
                expected = reference.query_many(
                    queries, k, algorithm="indexed"
                )
                got = engine.query_many(
                    queries,
                    k,
                    algorithm="indexed",
                    workers=2 if parallel else 1,
                    worker_context=FAST_CONTEXT,
                )
                for want, have in zip(expected, got):
                    assert results_equivalent(want, have)
                    assert want.rank_values() == have.rank_values()
            assert engine._pool.replica_digests() == [
                _master_digests(engine)
            ] * 2
            # The synced engine's master index knows at least every rank
            # an answer depends on; spot-check agreement on shared keys
            # (recorded ranks are exact, so overlap must agree).
            ref_known = reference.export_state()["known"]
            eng_known = engine.export_state()["known"]
            for source, targets in eng_known.items():
                for target, rank in targets.items():
                    if source in ref_known and target in ref_known[source]:
                        assert ref_known[source][target] == rank

    def test_closed_pool_refuses_every_task(self, random_gnp):
        engine = self.build_engine(random_gnp)
        pool = engine.prepare_parallel(2, FAST_CONTEXT)
        engine.close_pool()
        plan = ShardPlanner(2).plan(sample_queries(random_gnp, 4))
        for task in (
            lambda: pool.run_batch(plan, 4, "indexed"),
            lambda: pool.update_graph(engine.compact_graph()),
            lambda: pool.explore_hubs(engine.index.hubs, 8),
            pool.replica_digests,
        ):
            with pytest.raises(ParallelExecutionError, match="closed"):
                task()


def _mutable_graph(seed):
    """A private 100-node G(n, p): the shared conftest graphs must not mutate.

    Large enough that five rounds of :func:`_update_batch` (at most 20
    touched nodes) stay under the overlay's recompaction rule,
    ``max(8, n // 4)`` nodes: a recompaction restarts the pool, which is
    not what these tests are about.
    """
    return _gnp_graph(100, 0.05, seed=seed, directed=False)


def _indexed_engine(graph):
    """Truncated explorations, so each repair re-explores only some hubs."""
    engine = ReverseKRanksEngine(graph)
    engine.build_index(num_hubs=6, explore_limit=20, capacity=8)
    return engine


def _update_batch(rng, graph):
    """One seeded batch: remove an edge, add or lower another."""
    source, target, _ = rng.choice(sorted(graph.edges()))
    first, second = rng.sample(sorted(graph.nodes()), 2)
    return [
        ("remove_edge", source, target),
        ("add_edge", first, second, round(rng.uniform(0.5, 3.0), 2)),
    ]


def _master_digests(engine):
    return (engine.compact_graph().content_digest(),
            engine.index.content_digest())


def _snapshots(engine):
    return engine.registry.sample(
        "repro_pool_index_syncs_total", {"kind": "snapshot"}
    )


def _assert_restarted(engine, twin, queries, pids, snapshots, k=4):
    """The next pooled indexed batch runs on workers none of ``pids``,
    ships one snapshot more than ``snapshots``, and answers as the
    pool-less ``twin``.  Indexed parallel answers are rank-value
    equivalent to sequential ones (boundary ties may order differently
    — the documented contract)."""
    got = engine.query_many(
        queries, k, algorithm="indexed", workers=2,
        worker_context=FAST_CONTEXT,
    )
    want = twin.query_many(queries, k, algorithm="indexed")
    for mine, theirs in zip(got, want):
        assert results_equivalent(theirs, mine)
        assert mine.rank_values() == theirs.rank_values()
    assert set(engine._pool.worker_pids).isdisjoint(pids)
    assert _snapshots(engine) == snapshots + 1


@needs_fork
class TestDeltaSync:
    """Replicas kept in step by deltas: sharded repair + forwarded learning."""

    # 3 workers: more processes than a 2-CPU runner has cores, uneven
    # hub chunks, and every delta forwarded to two peers.
    @pytest.mark.parametrize("workers", [2, 3])
    def test_replicas_match_master_without_snapshots(self, workers):
        rounds = 4
        rng = random.Random(41)
        engine = _indexed_engine(_mutable_graph(41))
        with engine:
            pool = engine.prepare_parallel(workers, FAST_CONTEXT)
            pids = pool.worker_pids
            syncs = engine.registry.get("repro_pool_index_syncs_total")
            for _ in range(rounds):
                report = engine.apply_updates(_update_batch(rng, engine.graph))
                assert report.pool_synced
                engine.query_many(
                    sample_queries(engine.graph, 8), 4, algorithm="indexed",
                    workers=workers, worker_context=FAST_CONTEXT,
                    batch_timeout=60.0,
                )
            master = _master_digests(engine)
            assert pool.replica_digests() == [master] * workers
            assert syncs.labels(kind="snapshot").value == 1  # pool start
            assert syncs.labels(kind="delta").value == rounds
            assert pool.worker_pids == pids

    def test_sharded_repair_is_bit_identical_to_sequential(self):
        """Same repair delta and master state as a twin without a pool.

        The twin receives the same updates and, between them, the
        learning the pool batches merged into the master (as one delta,
        the way a journal replays it).
        """
        rng = random.Random(43)
        engine = _indexed_engine(_mutable_graph(43))
        twin = _indexed_engine(_mutable_graph(43))
        re_explored = 0
        with engine:
            engine.prepare_parallel(2, FAST_CONTEXT)
            for _ in range(5):
                ops = _update_batch(rng, engine.graph)
                report = engine.apply_updates(ops)
                expected = twin.apply_updates(ops)
                assert report.pool_synced and not expected.pool_synced
                assert pickle.dumps(report.index_delta) == pickle.dumps(
                    expected.index_delta
                )
                assert pickle.dumps(engine.export_state()) == pickle.dumps(
                    twin.export_state()
                )
                re_explored += len(report.index_delta.explorations)
                engine.index.start_learning_log()
                engine.query_many(
                    sample_queries(engine.graph, 8), 4, algorithm="indexed",
                    workers=2, worker_context=FAST_CONTEXT,
                )
                twin.index.merge_delta(engine.index.pop_learning_log())
        assert re_explored > 0

    def test_respawned_worker_starts_from_master(self):
        """A worker healed mid-batch starts from the master as it stands.

        Both workers die on their fourth task (the second query shard),
        after a repair the construction-time snapshot knows nothing of;
        the replacements must be exported from the master at respawn
        time and then receive the batch's learning like any worker.
        """
        rng = random.Random(53)
        engine = _indexed_engine(_mutable_graph(53))
        faults.configure("worker.before_task=crash#4*1")
        try:
            with engine:
                pool = engine.prepare_parallel(2, FAST_CONTEXT)
                syncs = engine.registry.get("repro_pool_index_syncs_total")
                for _ in range(2):
                    assert engine.apply_updates(
                        _update_batch(rng, engine.graph)
                    ).pool_synced
                    engine.query_many(
                        sample_queries(engine.graph, 8), 4,
                        algorithm="indexed", workers=2,
                        worker_context=FAST_CONTEXT,
                    )
                assert pool.respawn_count == 2
                assert syncs.labels(kind="snapshot").value == 3
                master = _master_digests(engine)
                assert pool.replica_digests() == [master, master]
        finally:
            faults.clear()

    def test_failed_batch_forces_a_snapshot(self):
        """After a shard raised, the next batch runs on a fresh pool,
        seeded with a snapshot.

        The failpoint fires after each worker answered (and learned from)
        its shard, so the workers know ranks the master never merged;
        repairing them by deltas would leave entries the master's
        affected-source test cannot see.  The caller gets the remote
        traceback, and the engine closes the pool.
        """
        rng = random.Random(47)
        graph = _mutable_graph(47)
        engine = _indexed_engine(graph)
        twin = _indexed_engine(_mutable_graph(47))
        queries = sample_queries(graph, 8)
        # Armed before the fork; task 1 is the first update, task 2 the
        # query shard.
        faults.configure("worker.before_result=error#2*1")
        try:
            with engine:
                pool = engine.prepare_parallel(2, FAST_CONTEXT)
                ops = _update_batch(rng, graph)
                assert engine.apply_updates(ops).pool_synced
                twin.apply_updates(ops)
                with pytest.raises(
                    ParallelExecutionError, match="FailpointError"
                ):
                    engine.query_many(
                        queries, 4, algorithm="indexed", workers=2,
                        worker_context=FAST_CONTEXT,
                    )
                assert engine._pool is None and pool.is_closed
                faults.clear()  # the next pool forks without it
                _assert_restarted(
                    engine, twin, queries, pool.worker_pids,
                    _snapshots(engine),
                )
                ops = _update_batch(rng, graph)
                assert engine.apply_updates(ops).pool_synced
                twin.apply_updates(ops)
                assert engine._pool.replica_digests() == [
                    _master_digests(engine)
                ] * 2
        finally:
            faults.clear()


def _lattice_engine(graph, **build):
    """A 16x16 road lattice's engine: rows under a budget of 48 settle
    well inside the lattice, so the repair's bound keeps hubs, and a few
    rounds of traffic stay under the recompaction rule (64 nodes)."""
    engine = ReverseKRanksEngine(graph)
    engine.build_index(num_hubs=6, explore_limit=48, capacity=8, **build)
    return engine


@needs_fork
class TestExactReplicas:
    """The two routes are exact: snapshots at replica start, deltas after."""

    def test_pool_built_index_repairs_like_a_sequential_build(self):
        """A pool-built index stores the distances a sequential build does.

        So a repair keeps the same hubs and reuses the same prefixes:
        over six rounds of road traffic, the repair outcome, the settle
        counts, the stored distances and the exported state equal a
        pool-less twin's every round.
        """
        rng = random.Random(5)
        graph = road_lattice(16, rng)
        twin = _lattice_engine(graph.copy())
        shadow = graph.copy()
        engine = _lattice_engine(graph, workers=2, worker_context=FAST_CONTEXT)
        closed = {}
        kept = reused = 0
        with engine:
            assert engine._pool is None  # the build closed its pool
            engine.prepare_parallel(2, FAST_CONTEXT)
            assert engine.index._dists == twin.index._dists
            assert pickle.dumps(engine.export_state()) == pickle.dumps(
                twin.export_state()
            )
            for _ in range(6):
                ops = road_traffic(rng, shadow, closed)
                assert engine.apply_updates(ops).pool_synced
                twin.apply_updates(ops)
                assert engine.index.last_repair == twin.index.last_repair
                assert (
                    engine.index.last_repair_settles
                    == twin.index.last_repair_settles
                )
                assert engine.index._dists == twin.index._dists
                assert pickle.dumps(engine.export_state()) == pickle.dumps(
                    twin.export_state()
                )
                kept += len(twin.index.last_repair[1])
                reused += twin.index.last_repair_settles[0]
        assert kept > 0 and reused > 0

    def test_sharded_build_ships_no_snapshot_of_the_index_it_replaces(self):
        """Any build closes the pool, whose replicas mirror the index the
        build replaces: a sharded build explores on a pool (starting one
        if there is none) but ships it no snapshot, and a sequential
        build ships nothing either.  After a first sharded build, a
        sequential rebuild and a sharded rebuild, the next indexed batch
        runs on new workers, ships the new index once and answers as a
        pool-less twin."""
        rng = random.Random(7)
        graph = road_lattice(12, rng)
        twin = ReverseKRanksEngine(graph.copy())
        engine = ReverseKRanksEngine(graph)
        queries = sample_queries(graph, 8)
        sharded = {"workers": 2, "worker_context": FAST_CONTEXT}
        pids = []
        with engine:
            for pool in (sharded, {}, sharded):
                count = _snapshots(engine)
                for each, options in ((engine, pool), (twin, {})):
                    each.build_index(
                        num_hubs=6, explore_limit=48, capacity=8, **options
                    )
                assert engine._pool is None
                assert _snapshots(engine) == count
                _assert_restarted(engine, twin, queries, pids, count)
                pids = engine._pool.worker_pids
                assert engine._pool.replica_digests() == [
                    _master_digests(engine)
                ] * 2

    def test_replicas_equal_master_after_every_step(self):
        """``query()``, 1- and 8-query indexed batches and updates, interleaved.

        The master's own learning (``query()``, and the 1-query batch,
        which stays in-process) reaches the workers as forwarded deltas:
        after every step the replicas equal the master, and the only
        snapshot is the pool start's.
        """
        rng = random.Random(61)
        graph = road_lattice(16, rng)
        shadow = graph.copy()
        engine = _lattice_engine(graph)
        queries = sorted(graph.nodes())[7::29]
        closed = {}
        with engine:
            pool = engine.prepare_parallel(2, FAST_CONTEXT)
            syncs = engine.registry.get("repro_pool_index_syncs_total")

            def batch(nodes):
                engine.query_many(
                    nodes, 4, algorithm="indexed", workers=2,
                    worker_context=FAST_CONTEXT,
                )

            for round_ in range(3):
                for step in (
                    lambda: engine.query(queries[round_], 4, algorithm="indexed"),
                    lambda: batch([queries[round_ + 3]]),
                    lambda: batch(queries[:8]),
                    lambda: engine.apply_updates(
                        road_traffic(rng, shadow, closed)
                    ),
                ):
                    step()
                    assert pool.replica_digests() == [
                        _master_digests(engine)
                    ] * 2
            assert syncs.labels(kind="snapshot").value == 1
            assert syncs.labels(kind="delta").value == 3

    def test_replicas_equal_master_through_every_event(self, monkeypatch):
        """Updates, ``query()``, 1- and 8-query indexed batches,
        ``adopt_index``, a sequential and a sharded rebuild and a batch
        whose shard raised, in one run.  After every step that leaves a
        live pool the replicas equal the master, and the snapshot
        counter equals the pool starts that shipped an index (no worker
        is respawned here)."""
        starts = []
        init = WorkerPool.__init__

        def spy(self, graph, workers, index=None, **options):
            starts.append(index is not None)
            init(self, graph, workers, index=index, **options)

        monkeypatch.setattr(WorkerPool, "__init__", spy)
        rng = random.Random(83)
        graph = road_lattice(16, rng)
        shadow = graph.copy()
        engine = _lattice_engine(graph)
        queries = sorted(graph.nodes())[7::29]
        closed = {}

        def update():
            live = engine._pool is not None
            report = engine.apply_updates(road_traffic(rng, shadow, closed))
            assert report.pool_synced == live

        def batch(nodes):
            engine.query_many(
                nodes, 4, algorithm="indexed", workers=2,
                worker_context=FAST_CONTEXT,
            )

        def raised_shard():
            # Armed before the pool that takes it forks: no pool is live.
            assert engine._pool is None
            faults.configure("worker.before_result=error*1")
            try:
                with pytest.raises(ParallelExecutionError):
                    batch(queries[:8])
            finally:
                faults.clear()
            assert engine._pool is None

        steps = [
            lambda: engine.prepare_parallel(2, FAST_CONTEXT),
            update,
            lambda: engine.query(queries[0], 4, algorithm="indexed"),
            lambda: batch(queries[1:2]),
            lambda: batch(queries[:8]),
            update,
            lambda: engine.adopt_index(
                HubIndex.from_state(graph, engine.index.export_state())
            ),
            lambda: batch(queries[:8]),
            update,
            lambda: engine.build_index(
                num_hubs=6, explore_limit=48, capacity=8
            ),
            lambda: batch(queries[2:10]),
            lambda: engine.build_index(
                num_hubs=6, explore_limit=48, capacity=8,
                workers=2, worker_context=FAST_CONTEXT,
            ),
            raised_shard,
            lambda: batch(queries[:8]),
            update,
            lambda: engine.query(queries[3], 4, algorithm="indexed"),
        ]
        with engine:
            for step in steps:
                step()
                if engine._pool is not None:
                    assert engine._pool.replica_digests() == [
                        _master_digests(engine)
                    ] * 2
                assert _snapshots(engine) == sum(starts)
        # Started by prepare_parallel and by the first batch after the
        # adoption, the sequential rebuild and the raised shard, and by
        # the raising batch itself; the sharded rebuild explored on the
        # pool the batch before it started.
        assert len(starts) == sum(starts) == 5

    def test_served_batches_keep_replicas_and_journal_equal(self, tmp_path):
        """The same through ``QueryServer(workers=2)`` and its journal.

        A 1-query batch runs in-process under the server's journal log;
        multi-query batches run on the pool.  The replicas equal the
        master, and replaying the journal over the installed snapshot
        gives the master's state.
        """
        graph = road_lattice(12, random.Random(67))
        engine = _lattice_engine(graph)
        store = DurableIndexStore(tmp_path / "state")
        store.install(engine.index)
        queries = sorted(graph.nodes())[5::11]
        config = ServeConfig(workers=2, worker_context=FAST_CONTEXT)
        answered = []
        with QueryServer(engine, config=config, store=store) as server:
            host, port = server.address

            def ask(nodes):
                with ServeClient(host=host, port=port) as client:
                    answered.append(
                        client.query_many(nodes, k=4, algorithm="indexed")
                    )

            def served_batch(*requests):
                """Serve ``requests`` (lists of nodes) as one batch."""
                expected = server.batcher.requests + len(requests)
                server.batcher.pause()
                threads = [
                    threading.Thread(target=ask, args=(nodes,))
                    for nodes in requests
                ]
                for thread in threads:
                    thread.start()
                waiting = threading.Event()
                for _ in range(500):
                    if server.batcher.requests >= expected:
                        break
                    waiting.wait(0.01)
                server.batcher.resume()
                for thread in threads:
                    thread.join()

            served_batch(queries[0:3], queries[3:6])
            served_batch(queries[6:7])
            served_batch(queries[7:9], queries[9:11])
            served_batch(queries[11:12])
            assert len(answered) == 6
            assert server.batcher.batches == 4
            pool = engine._pool
            assert pool.replica_digests() == [_master_digests(engine)] * 2
            syncs = engine.registry.get("repro_pool_index_syncs_total")
            assert syncs.labels(kind="snapshot").value == 1
            replayed = DurableIndexStore(tmp_path / "state").load(graph)
            assert pickle.dumps(replayed.export_state()) == pickle.dumps(
                engine.export_state()
            )


def _graph_broadcasts(monkeypatch):
    """Record the ``(tasks, replies)`` of every graph update a pool ships."""
    seen = []
    broadcast = WorkerPool._broadcast

    def spy(self, job_id, tasks, action):
        replies = broadcast(self, job_id, tasks, action)
        if tasks[0][0] == "graph":
            seen.append((tasks, replies))
        return replies

    monkeypatch.setattr(WorkerPool, "_broadcast", spy)
    return seen


@needs_fork
class TestUpdateTransport:
    """An update ships each worker only what it lacks."""

    def test_round_trip_ships_no_prefix_entry(self, monkeypatch):
        """Each task's overlay holds exactly the batch's rows, and its
        repair share the drops, the trims and copies of the kept
        prefixes' distances; each reply holds whole rows or tails, which
        reach the other worker without distances.  The shipped
        distances and the replied entries are the repair's reused and
        explored settles."""
        seen = _graph_broadcasts(monkeypatch)
        rng = random.Random(5)
        graph = road_lattice(12, rng)
        shadow = graph.copy()
        engine = _lattice_engine(graph)
        closed = {}
        last = []  # the previous update's replies
        reused = explored = 0
        with engine:
            engine.prepare_parallel(2, FAST_CONTEXT)
            for _ in range(8):
                report = engine.apply_updates(
                    road_traffic(rng, shadow, closed, size=2)
                )
                assert report.pool_synced and not report.recompacted
                ((tasks, replies),) = seen
                seen.clear()
                overlay = engine.compact_graph()
                batch = {overlay.index_of(node) for node in report.touched}
                index = engine.index
                trimmed = report.index_delta.trimmed
                known = index.export_state()["known"]
                shipped = replied = 0
                for worker, (task, rows) in enumerate(zip(tasks, replies)):
                    _, _, forwarded, delta, repair = task
                    drops, chunk, _, prefixes = repair
                    assert set(delta["out_rows"]) == batch
                    assert delta["in_rows"] is None
                    assert not drops.ranks and drops.trimmed == trimmed
                    assert forwarded == [
                        [(hub, row, None) for hub, row, _ in other]
                        for peer, other in enumerate(last)
                        if peer != worker and other
                    ]
                    for hub, dists in prefixes.items():
                        assert type(dists) is array
                        assert dists is not index._dists[hub]
                        assert dists == index._dists[hub][: trimmed[hub]]
                        shipped += len(dists)
                    assert [hub for hub, _, _ in rows] == list(chunk)
                    for hub, row, dists in rows:
                        entries = list(known[hub].items())
                        assert list(row.items()) == entries[trimmed.get(hub, 0):]
                        assert len(dists) == len(row)
                        replied += len(row)
                assert (shipped, replied) == index.last_repair_settles
                reused += shipped
                explored += replied
                last = replies
        assert reused > 0 and explored > 0

    def test_respawned_worker_gets_the_side_table_then_deltas(
        self, monkeypatch
    ):
        """A worker killed after an in-place update is respawned, by the
        next indexed batch, from the whole side-table of the current
        overlay; the two updates after that reach it as deltas, and
        after each update every replica equals the master."""
        seen = _graph_broadcasts(monkeypatch)
        starts = []
        init_bytes = WorkerPool._current_init_bytes

        def spy(self):
            payload = init_bytes(self)
            starts.append(pickle.loads(payload)["overlay"])
            return payload

        monkeypatch.setattr(WorkerPool, "_current_init_bytes", spy)
        rng = random.Random(71)
        graph = road_lattice(16, rng)
        shadow = graph.copy()
        engine = _lattice_engine(graph)
        closed = {}
        with engine:
            pool = engine.prepare_parallel(2, FAST_CONTEXT)
            assert engine.apply_updates(
                road_traffic(rng, shadow, closed)
            ).pool_synced
            assert pool.replica_digests() == [_master_digests(engine)] * 2
            victim = pool._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            engine.query_many(
                sample_queries(engine.graph, 8), 4, algorithm="indexed",
                workers=2, worker_context=FAST_CONTEXT,
            )
            assert pool.respawn_count == 1
            overlay = engine.compact_graph()
            start, side_table = starts
            assert start is None  # the pool started on the base
            assert side_table["on_version"] == overlay.base.source_version
            assert side_table["version"] == overlay.source_version
            assert side_table["out_rows"].keys() == overlay.overlay_out.keys()
            for _ in range(2):
                held = engine.compact_graph().source_version
                seen.clear()
                report = engine.apply_updates(road_traffic(rng, shadow, closed))
                assert report.pool_synced
                overlay = engine.compact_graph()
                batch = {overlay.index_of(node) for node in report.touched}
                ((tasks, _),) = seen
                for task in tasks:
                    assert task[3]["on_version"] == held
                    assert set(task[3]["out_rows"]) == batch
                assert pool.replica_digests() == [
                    _master_digests(engine)
                ] * 2
            assert len(starts) == 2

    def test_worker_refuses_a_delta_for_another_version(self, monkeypatch):
        """With the pool's record of the overlay it last shipped made
        stale, the workers refuse the delta cut against it: the update
        still applies, the master repairs alone as a pool-less twin
        does, and the pool is closed.  The next indexed batch starts a
        pool mid-overlay, seeded with the overlay's delta against the
        base (the whole side-table), and the update after it ships as a
        delta again."""
        refusals = []
        update_graph = WorkerPool.update_graph

        def spy(self, *args, **kwargs):
            try:
                return update_graph(self, *args, **kwargs)
            except ParallelExecutionError as exc:
                refusals.append(str(exc))
                raise

        monkeypatch.setattr(WorkerPool, "update_graph", spy)
        rng = random.Random(73)
        graph = road_lattice(16, rng)
        shadow = graph.copy()
        engine = _lattice_engine(graph)
        twin = _lattice_engine(graph.copy())
        closed = {}
        with engine:
            pool = engine.prepare_parallel(2, FAST_CONTEXT)
            ops = road_traffic(rng, shadow, closed)
            assert engine.apply_updates(ops).pool_synced
            twin.apply_updates(ops)
            pool._graph = pool._base  # the overlay the workers hold is newer
            ops = road_traffic(rng, shadow, closed)
            report = engine.apply_updates(ops)
            expected = twin.apply_updates(ops)
            assert report.applied == len(ops)
            assert not report.pool_synced
            assert engine._pool is None and pool.is_closed
            assert len(refusals) == 1
            assert "refusing to apply" in refusals[0]
            assert repr(report.index_delta) == repr(expected.index_delta)
            assert repr(engine.export_state()) == repr(twin.export_state())
            assert engine.index.last_repair == twin.index.last_repair
            assert engine.index._dists == twin.index._dists
            seeds = []
            init_bytes = WorkerPool._current_init_bytes

            def seeding(self):
                payload = init_bytes(self)
                seeds.append(pickle.loads(payload)["overlay"])
                return payload

            monkeypatch.setattr(WorkerPool, "_current_init_bytes", seeding)
            engine.query_many(
                sample_queries(engine.graph, 8), 4, algorithm="indexed",
                workers=2, worker_context=FAST_CONTEXT,
            )
            overlay = engine.compact_graph()
            (seed,) = seeds
            assert seed["base_digest"] == overlay.base.content_digest()
            assert seed["on_version"] == overlay.base.source_version
            assert seed["out_rows"].keys() == overlay.overlay_out.keys()
            assert engine.apply_updates(
                road_traffic(rng, shadow, closed)
            ).pool_synced
            assert engine._pool.replica_digests() == [
                _master_digests(engine)
            ] * 2
