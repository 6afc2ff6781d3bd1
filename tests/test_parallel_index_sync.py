"""Worker hub-index replicas: what the master knows must reach the pool.

Hub rows cross the process boundary by two routes only.  A snapshot
(``export_state``) ships when a replica starts or the master index is
replaced: pool start, a respawned worker, ``build_index`` /
``adopt_index``, and after a batch that raised.  Everything else travels
as deltas: each worker's shard learning is forwarded to the other
workers, graph updates shard the index repair over the workers, and the
learning of every indexed query the master answers in-process is
forwarded to all of them.  After any mix of these the replicas equal the
master (``WorkerPool.replica_digests``) and the snapshot counter names
only the events above.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random
import threading

import pytest

from repro import faults
from repro.core import ReverseKRanksEngine
from repro.core.hub_index import HubIndex, HubIndexDelta
from repro.core.validation import results_equivalent
from repro.errors import ParallelExecutionError
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
        """adopt_index swaps identity: the next batch ships a snapshot.

        The swapped-in index may have a different capacity, and the
        worker-side k validation runs against *its* snapshot — serving
        from the old one would wrongly reject (or mis-bound) queries.
        Until then the master's learning is not forwarded: the snapshot
        carries it.
        """
        queries = sample_queries(random_gnp, 6)
        engine = self.build_engine(random_gnp)
        with engine:
            pool = engine.prepare_parallel(2, FAST_CONTEXT)
            syncs = engine.registry.get("repro_pool_index_syncs_total")
            replacement = HubIndex.build(
                random_gnp, num_hubs=4, capacity=32
            )
            engine.adopt_index(replacement)
            engine.query(queries[0], 20, algorithm="indexed")
            assert pool._pending == [[], []]
            engine.query_many(
                queries, 20, algorithm="indexed", workers=2,
                worker_context=FAST_CONTEXT,
            )
            assert engine._pool_index is replacement
            assert syncs.labels(kind="snapshot").value == 2
            assert pool.replica_digests() == [_master_digests(engine)] * 2

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

    def test_update_index_rejected_on_closed_pool(self, random_gnp):
        engine = self.build_engine(random_gnp)
        pool = engine.prepare_parallel(2, FAST_CONTEXT)
        engine.close_pool()
        with pytest.raises(ParallelExecutionError, match="closed"):
            pool.update_index(engine.index)


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
        """After a shard raised, the next sync ships a snapshot.

        The failpoint fires after each worker answered (and learned from)
        its shard, so the workers know ranks the master never merged;
        repairing them by deltas would leave entries the master's
        affected-source test cannot see.
        """
        rng = random.Random(47)
        graph = _mutable_graph(47)
        shadow = graph.copy()
        engine = _indexed_engine(graph)
        queries = sample_queries(graph, 8)
        # Armed before the fork; task 1 is the first update, task 2 the
        # query shard.
        faults.configure("worker.before_result=error#2*1")
        try:
            with engine:
                pool = engine.prepare_parallel(2, FAST_CONTEXT)
                syncs = engine.registry.get("repro_pool_index_syncs_total")
                for attempt in range(2):
                    ops = _update_batch(rng, graph)
                    for op in ops:
                        getattr(shadow, op[0])(*op[1:])
                    assert engine.apply_updates(ops).pool_synced
                    if attempt == 0:
                        with pytest.raises(ParallelExecutionError):
                            engine.query_many(
                                queries, 4, algorithm="indexed", workers=2,
                                worker_context=FAST_CONTEXT,
                            )
                assert syncs.labels(kind="delta").value == 1
                assert syncs.labels(kind="snapshot").value == 2
                master = _master_digests(engine)
                assert pool.replica_digests() == [master, master]

                reference = ReverseKRanksEngine(shadow)
                reference.adopt_index(
                    HubIndex.build(
                        shadow, capacity=8, explore_limit=20,
                        hubs=engine.index.hubs,
                        backend=reference.compact_graph(),
                    )
                )
                got = engine.query_many(
                    queries, 4, algorithm="indexed", workers=2,
                    worker_context=FAST_CONTEXT,
                )
                want = reference.query_many(queries, 4, algorithm="indexed")
                for mine, theirs in zip(got, want):
                    assert results_equivalent(theirs, mine)
                    assert mine.rank_values() == theirs.rank_values()
        finally:
            faults.clear()


def _lattice_engine(graph, **build):
    """A 16x16 road lattice's engine: rows under a budget of 48 settle
    well inside the lattice, so the distance test keeps hubs, and a few
    rounds of traffic stay under the recompaction rule (64 nodes)."""
    engine = ReverseKRanksEngine(graph)
    engine.build_index(num_hubs=6, explore_limit=48, capacity=8, **build)
    return engine


@needs_fork
class TestExactReplicas:
    """The two routes are exact: snapshots at replica start, deltas after."""

    def test_pool_built_index_repairs_like_a_sequential_build(self):
        """A pool-built index stores the distances a sequential build does.

        So a repair keeps the same hubs: over six rounds of road
        traffic, the repair outcome and the exported state equal a
        pool-less twin's every round.
        """
        rng = random.Random(5)
        graph = road_lattice(16, rng)
        twin = _lattice_engine(graph.copy())
        shadow = graph.copy()
        engine = _lattice_engine(graph, workers=2, worker_context=FAST_CONTEXT)
        closed = {}
        kept = 0
        with engine:
            assert engine._pool is not None
            assert engine.index._dists == twin.index._dists
            assert pickle.dumps(engine.export_state()) == pickle.dumps(
                twin.export_state()
            )
            for _ in range(6):
                ops = road_traffic(rng, shadow, closed)
                assert engine.apply_updates(ops).pool_synced
                twin.apply_updates(ops)
                assert engine.index.last_repair == twin.index.last_repair
                assert pickle.dumps(engine.export_state()) == pickle.dumps(
                    twin.export_state()
                )
                kept += len(twin.index.last_repair[1])
        assert kept > 0

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
