"""Worker hub-index replicas: what the master learns must reach the pool.

The regression under test: ``_ensure_pool`` used to key the workers'
index snapshot on the index *object's identity*, so everything the
master index learned between parallel batches — sequential queries,
merged-back deltas, journal replay — never reached the workers; they
kept answering on their construction-time snapshot forever.  The fix
stamps every ``record_*`` call into ``HubIndex.revision`` and re-ships
an ``export_state`` snapshot (over the pool's ``"index"`` broadcast,
keeping worker processes alive) whenever the master's *local* learning
reaches ``engine.index_sync_threshold`` revisions — or when the index
object was swapped outright.

Everything else travels as deltas (``TestDeltaSync``): each worker's
shard learning is forwarded to the other workers, graph updates shard
the index repair over the workers, and the replicas must end digest-equal
to the master without further snapshots.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random

import pytest

from repro import faults
from repro.core import ReverseKRanksEngine
from repro.core.hub_index import HubIndex, HubIndexDelta
from repro.core.validation import results_equivalent
from repro.errors import ParallelExecutionError

from conftest import _gnp_graph, sample_queries

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
        """Master-side learning between parallel batches is re-shipped."""
        queries = sample_queries(random_gnp, 6)
        engine = self.build_engine(random_gnp)
        engine.index_sync_threshold = 1  # ship on any drift
        with engine:
            engine.prepare_parallel(2, FAST_CONTEXT)
            pids_before = engine._pool.worker_pids
            # Learn on the master only: a sequential indexed batch.
            engine.query_many(queries, 4, algorithm="indexed")
            drifted_to = engine.index.revision
            assert drifted_to > engine._pool_index_revision
            # The next parallel batch must first sync the workers (the
            # merge-back of that batch's own learning then advances the
            # master past the shipped snapshot again)...
            engine.query_many(
                queries, 5, algorithm="indexed", workers=2,
                worker_context=FAST_CONTEXT,
            )
            assert engine._pool_index_revision >= drifted_to
            # ...without restarting any worker process.
            assert engine._pool.worker_pids == pids_before

    def test_below_threshold_drift_is_not_shipped(self, random_gnp):
        queries = sample_queries(random_gnp, 6)
        engine = self.build_engine(random_gnp)
        engine.index_sync_threshold = 10_000_000
        with engine:
            engine.prepare_parallel(2, FAST_CONTEXT)
            syncs = engine.registry.get("repro_pool_index_syncs_total")
            shipped = engine._pool_index_revision
            engine.query_many(queries, 4, algorithm="indexed")
            local = engine.index.revision - shipped
            assert local > 0
            engine.query_many(
                queries, 5, algorithm="indexed", workers=2,
                worker_context=FAST_CONTEXT,
            )
            # Drift stayed under the (huge) threshold: no re-ship — the
            # only snapshot is the pool start's.  The parallel batch's
            # merged learning is forwarded to the workers as deltas, so
            # it is not drift: drift is exactly the master-local batch.
            assert syncs.labels(kind="snapshot").value == 1
            assert engine.index.revision - engine._pool_index_revision == local

    def test_swapped_index_object_is_always_shipped(self, random_gnp):
        """adopt_index swaps identity: must re-ship regardless of drift.

        The swapped-in index may have a different capacity, and the
        worker-side k validation runs against *its* snapshot — serving
        from the old one would wrongly reject (or mis-bound) queries.
        """
        queries = sample_queries(random_gnp, 6)
        engine = self.build_engine(random_gnp)
        engine.index_sync_threshold = 10_000_000
        with engine:
            engine.prepare_parallel(2, FAST_CONTEXT)
            replacement = HubIndex.build(
                random_gnp, num_hubs=4, capacity=32
            )
            engine.adopt_index(replacement)
            adopted_at = replacement.revision
            engine.query_many(
                queries, 5, algorithm="indexed", workers=2,
                worker_context=FAST_CONTEXT,
            )
            assert engine._pool_index is replacement
            assert engine._pool_index_revision >= adopted_at

    def test_synced_parallel_matches_sequential_reference(self, random_gnp):
        """End to end: answers after a sync match a sequential engine's.

        Both engines learn through the same batch sequence; the parallel
        one interleaves master-only learning with worker batches under a
        ship-always threshold.  Indexed parallel answers are rank-value
        equivalent to sequential ones (boundary ties may order
        differently — the documented contract).
        """
        queries = sample_queries(random_gnp, 6)
        reference = self.build_engine(random_gnp)
        engine = self.build_engine(random_gnp)
        engine.index_sync_threshold = 1
        with engine:
            for k, parallel in ((4, False), (5, True), (6, True)):
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
    """A private 60-node G(n, p): the shared conftest graphs must not mutate."""
    return _gnp_graph(60, 0.08, seed=seed, directed=False)


def _indexed_engine(graph):
    """Truncated explorations, so each repair re-explores only some hubs."""
    engine = ReverseKRanksEngine(graph)
    engine.build_index(num_hubs=6, explore_limit=20, capacity=8)
    # Keep every update on the overlay path (a recompaction restarts
    # the pool, which is not what these tests are about).
    engine.overlay_threshold = 10_000
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
