"""Seeded differential fuzz: incremental maintenance ≡ full rebuild.

Each seed generates a random graph (shape, density, directedness and
weights drawn from the seed), builds an engine with a CSR compilation
and a hub index, then interleaves seeded mutation batches — edge
inserts (including zero-weight and node-appending ones), deletions,
reweights, node removals and deliberate no-ops — with query batches
through ``engine.apply_updates``.  After every round the overlay-path
answers (ranks AND work counters) must be bit-identical to a fresh
engine compiled from scratch over an identically-mutated shadow graph,
and the repaired hub index's exported state must equal a from-scratch
``HubIndex.build`` over the same hub set.  A third of the seeds run the
whole interleaving with a live 2-worker pool, asserting the pool
absorbs updates via the graph broadcast (same PIDs, bit-identical
parallel answers) instead of being torn down; its live pool shards each
repair, so the rebuild comparison covers sharded repair too.  Those
seeds also drive a second pooled engine, a *learner*, through the same
updates with one indexed pool batch per round: its answers must be
rank-equivalent to a fresh engine over a same-hub rebuilt index, every
worker's replica digest must equal the master's, and its index must
match a pool-less twin given the same updates and the same learning —
same repair deltas, same state, same dict orders.  (The learning stays
on the learner so the checks on the first engine remain exact.)  Some
rounds first submit their batch with one invalid op added, which must
raise and leave the engine exactly as it was (all-or-nothing updates);
those ops come from a separate RNG, so every seed's valid batches are
the same with or without them.

One process pool per third seed → marked ``slow`` and excluded from the
tier-1 ``-m "not slow"`` CI split, like ``test_fuzz_differential``.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import random

import pytest

from repro.core import ReverseKRanksEngine
from repro.core.hub_index import HubIndex
from repro.core.validation import results_equivalent
from repro.errors import EdgeNotFoundError, NodeNotFoundError
from repro.graph import GraphBuilder

from conftest import distance_test_keeps, edge_changes, index_signature

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable"),
]

#: Size of the sweep; the ISSUE floor is 30 seeds.
NUM_SEEDS = 33


def _random_graph(rng: random.Random, tie_heavy=None):
    """A seeded random graph with varied shape, density and weights."""
    num_nodes = rng.randint(10, 24)
    directed = rng.random() < 0.3
    probability = rng.uniform(0.15, 0.45)
    if tie_heavy is None:
        tie_heavy = rng.random() < 0.3
    builder = GraphBuilder(directed=directed, name=f"mut-fuzz-{num_nodes}")
    for node in range(num_nodes):
        builder.add_node(node)
    for source in range(num_nodes):
        for target in range(num_nodes):
            if source == target or (not directed and source >= target):
                continue
            if rng.random() < probability:
                weight = (
                    rng.choice([1.0, 1.0, 2.0])
                    if tie_heavy
                    else round(rng.uniform(0.5, 4.0), 2)
                )
                builder.add_interaction(source, target, weight)
    return builder.build()


def _mutation_batch(rng, shadow, fresh_ids, zero_weight=True, ties=False):
    """Draw a seeded op batch, shadow-applying each op as it is drawn.

    Applying to ``shadow`` immediately keeps later ops in the batch
    consistent with the post-op graph (no removing an edge twice); the
    engine then replays the identical list from the identical start
    state, so both sides end bit-equal.  Without ``zero_weight`` no
    insert weighs zero (the draw that would pick it still happens).
    With ``ties`` inserts weigh 1 or 2 and a lowered edge halves, so
    path lengths stay exact and tie often.
    """

    def weight_between(low, high, digits):
        if ties:
            return rng.choice([1.0, 2.0])
        return round(rng.uniform(low, high), digits)

    ops = []
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        nodes = sorted(shadow.nodes(), key=repr)
        edges = list(shadow.edges())
        if roll < 0.10 and shadow.num_nodes > 12:
            victim = rng.choice(nodes)
            ops.append(("remove_node", victim))
            shadow.remove_node(victim)
        elif roll < 0.38 and edges:
            source, target, _ = rng.choice(edges)
            ops.append(("remove_edge", source, target))
            shadow.remove_edge(source, target)
        elif roll < 0.52 and edges:
            source, target, weight = rng.choice(edges)
            lowered = (
                weight / 2 if ties else round(weight * rng.uniform(0.3, 0.9), 6)
            )
            ops.append(("add_edge", source, target, lowered))
            shadow.add_edge(source, target, lowered)
        elif roll < 0.62:
            appended = f"new-{next(fresh_ids)}"
            anchor = rng.choice(nodes)
            weight = weight_between(0.5, 3.0, 3)
            ops.append(("add_edge", anchor, appended, weight))
            shadow.add_edge(anchor, appended, weight)
        elif roll < 0.72:
            ops.append(("add_node", rng.choice(nodes)))  # deliberate no-op
        else:
            source, target = rng.sample(nodes, 2)
            weight = (
                0.0
                if rng.random() < 0.15 and zero_weight
                else weight_between(0.5, 4.0, 3)
            )
            ops.append(("add_edge", source, target, weight))
            shadow.add_edge(source, target, weight)
    return ops


def _invalid_op(bad, ops, shadow):
    """``(position, op)``: an op that must fail inside ``ops``.

    Either repeats one of the batch's removals after the whole batch
    (when ``shadow``, the post-batch graph, confirms it is gone by
    then), or removes a node or edge that never existed.
    """
    removals = [op for op in ops if op[0] in ("remove_edge", "remove_node")]
    if removals and bad.random() < 0.5:
        op = bad.choice(removals)
        if op[0] == "remove_node" and not shadow.has_node(op[1]):
            return len(ops), op
        if op[0] == "remove_edge" and not shadow.has_edge(op[1], op[2]):
            return len(ops), op
    ghost = bad.choice(
        [("remove_node", "ghost"), ("remove_edge", bad.choice(ops)[1], "ghost")]
    )
    return bad.randint(0, len(ops)), ghost


def _engine_state(engine):
    """What a failing update batch must leave exactly as it was."""
    graph = engine.graph
    pids = engine._pool.worker_pids if engine._pool is not None else None
    return (
        graph.version,
        list(graph.edges()),
        id(engine.compact_graph()),
        engine.index.revision,
        pids,
    )


def _pick_queries(rng, nodes, count):
    pool = sorted(nodes, key=repr)
    return rng.sample(pool, min(count, len(pool)))


def _stats_dict(result):
    payload = result.stats.as_dict()
    payload.pop("elapsed_seconds")
    return payload


def _assert_bit_identical(expected, actual, context):
    for want, got in zip(expected, actual):
        assert got.as_pairs() == want.as_pairs(), (context, want.query)
        assert _stats_dict(got) == _stats_dict(want), (context, want.query)


def _learner_and_twin(seed, capacity):
    """Two engines over the seed's graph, rebuilt from its own stream.

    The same construction order and graph versions as the fuzzed graph,
    so their indexes compare by ``repr``.  The learner gets a pool.
    """
    learner, twin = (
        ReverseKRanksEngine(_random_graph(random.Random(0x1C4E + seed)))
        for _ in range(2)
    )
    for each in (learner, twin):
        each.build_index(num_hubs=3, capacity=capacity)
    learner.parallel_min_batch = 1
    learner.prepare_parallel(2, "fork")
    return learner, twin


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_incremental_equals_rebuild(seed):
    rng = random.Random(0x1C4E + seed)
    bad = random.Random(0xBAD + seed)  # never perturbs ``rng``'s stream
    graph = _random_graph(rng)
    shadow = graph.copy()
    fresh_ids = itertools.count()
    parallel = seed % 3 == 0
    capacity = 8
    learner = twin = None
    if parallel:
        learner, twin = _learner_and_twin(seed, capacity)

    with ReverseKRanksEngine(graph) as engine, (
        learner or contextlib.nullcontext()
    ):
        engine.build_index(num_hubs=3, capacity=capacity)
        if parallel:
            engine.parallel_min_batch = 1
            warm = _pick_queries(rng, shadow.nodes(), 4)
            engine.query_many(
                warm, 2, algorithm="dynamic", workers=2, worker_context="fork"
            )
            pids = sorted(p.pid for p in engine._pool._processes)

        for round_number in range(rng.randint(2, 3)):
            ops = _mutation_batch(rng, shadow, fresh_ids)
            context = f"seed={seed} round={round_number}"
            if bad.random() < 0.4:
                position, op = _invalid_op(bad, ops, shadow)
                state = _engine_state(engine)
                with pytest.raises((EdgeNotFoundError, NodeNotFoundError)):
                    engine.apply_updates(ops[:position] + [op] + ops[position:])
                assert _engine_state(engine) == state, (context, op)
            pool_alive = engine._pool is not None
            report = engine.apply_updates(ops)
            if parallel and pool_alive and report.applied and not report.recompacted:
                # Satellite guarantee: the broadcast kept the same workers.
                assert report.pool_synced, context
                assert sorted(
                    p.pid for p in engine._pool._processes
                ) == pids, context

            queries = _pick_queries(rng, shadow.nodes(), rng.randint(3, 6))
            k = rng.randint(1, 4)
            reference = ReverseKRanksEngine(shadow)
            backend = reference.compact_graph()
            for algorithm in ("dynamic", "static"):
                expected = reference.query_many(queries, k, algorithm=algorithm)
                sequential = engine.query_many(queries, k, algorithm=algorithm)
                _assert_bit_identical(
                    expected, sequential, f"{context} {algorithm}"
                )
                if parallel and engine._pool is not None:
                    shipped = engine.query_many(
                        queries, k, algorithm=algorithm,
                        workers=2, worker_context="fork",
                    )
                    _assert_bit_identical(
                        expected, shipped, f"{context} {algorithm}@w2"
                    )

            # The repaired index must equal a from-scratch build over the
            # SAME hub set (hub selection over the mutated graph may
            # legitimately pick different hubs; the repair claim is about
            # the knowledge, not the selection).
            rebuilt = HubIndex.build(
                shadow, capacity=capacity, hubs=engine.index.hubs,
                backend=backend,
            )
            assert index_signature(engine.index) == index_signature(
                rebuilt
            ), context
            # A resumed row's distances feed the next repair's bound.
            assert engine.index._dists == rebuilt._dists, context

            if learner is not None:
                # repr, not pickle: equal values in equal dict orders.
                # Node ids a worker sent back are equal but distinct
                # objects, which pickle's memo tells apart for strings
                # such as the appended "new-N" nodes.
                learned = learner.apply_updates(ops)
                expected = twin.apply_updates(ops)
                assert repr(learned.index_delta) == repr(
                    expected.index_delta
                ), context
                assert repr(learner.export_state()) == repr(
                    twin.export_state()
                ), context
                learner.index.start_learning_log()
                shipped = learner.query_many(
                    queries, k, algorithm="indexed",
                    workers=2, worker_context="fork",
                )
                twin.index.merge_delta(learner.index.pop_learning_log())
                reference.adopt_index(rebuilt)
                expected = reference.query_many(queries, k, algorithm="indexed")
                for want, got in zip(expected, shipped):
                    assert results_equivalent(want, got), (context, want.query)
                    assert want.rank_values() == got.rank_values(), context
                master = (
                    learner.compact_graph().content_digest(),
                    learner.index.content_digest(),
                )
                assert learner._pool.replica_digests() == [master, master], (
                    context
                )

        # One end-to-end indexed batch against the rebuilt-index engine
        # (runs last: indexed queries learn into the master index, which
        # would perturb the per-round state comparisons above).
        reference = ReverseKRanksEngine(shadow)
        backend = reference.compact_graph()
        rebuilt = HubIndex.build(
            shadow, capacity=capacity, hubs=engine.index.hubs, backend=backend
        )
        reference.adopt_index(rebuilt)
        queries = _pick_queries(rng, shadow.nodes(), 5)
        expected = reference.query_many(queries, 3, algorithm="indexed")
        actual = engine.query_many(queries, 3, algorithm="indexed")
        _assert_bit_identical(expected, actual, f"seed={seed} indexed")


#: Seeds of the truncated-budget sweep, per weight kind.
NUM_TRUNCATED_SEEDS = 12


@pytest.mark.parametrize("ties", [True, False], ids=["ties", "positive"])
@pytest.mark.parametrize("seed", range(NUM_TRUNCATED_SEEDS))
def test_truncated_budget_repair_equals_rebuild(seed, ties):
    """Repairs under an exploration budget of about a third of the graph.

    ``test_incremental_equals_rebuild`` builds without ``explore_limit``,
    so every hub row is shorter than the budget and the repair's
    disturbance bound only ever meets an infinite radius.  Here rows are
    cut, often inside a tie group, so the radius is finite.  Tie-heavy
    graphs get tie-heavy batches with zero-weight inserts (which turn
    the bound off); the others stay positive throughout.  Every round
    the repaired index must equal a same-hub, same-budget build, stored
    distances included, and each hub the bound kept must hold the
    rebuild's row in the same order.  A third of the seeds keep a live
    pool, which shards the repairs; its replicas must digest equal to
    the master.
    """
    rng = random.Random(0x7B0D + seed)
    graph = _random_graph(rng, tie_heavy=ties)
    shadow = graph.copy()
    fresh_ids = itertools.count()
    limit = max(2, graph.num_nodes // 3)
    pooled = seed % 3 == 0
    with ReverseKRanksEngine(graph) as engine:
        engine.build_index(num_hubs=4, explore_limit=limit, capacity=8)
        engine.parallel_min_batch = 1
        for round_number in range(rng.randint(4, 6)):
            context = f"seed={seed} ties={ties} round={round_number}"
            queries = _pick_queries(rng, shadow.nodes(), 3)
            if pooled:
                # Dynamic queries learn nothing; they keep a pool alive
                # (a recompaction drops it) so the next repair is sharded.
                engine.query_many(
                    queries, 2, algorithm="dynamic", workers=2,
                    worker_context="fork",
                )
            before = shadow.copy()
            known = engine.index.export_state()["known"]
            # Copies: a repair trims and extends the stored arrays in place.
            stored = {
                hub: dists[:] for hub, dists in engine.index._dists.items()
            }
            ops = _mutation_batch(
                rng, shadow, fresh_ids, zero_weight=ties, ties=ties
            )
            report = engine.apply_updates(ops)
            if pooled and report.applied and not report.recompacted:
                assert report.pool_synced, context
            positive = all(
                weight > 0
                for graph in (before, shadow)
                for _, _, weight in graph.edges()
            )
            if positive and report.index_repaired and not report.removed:
                # The bound keeps every hub the distance test kept.
                edges = edge_changes(before, shadow)
                for hub in engine.index.last_repair[0]:
                    row = known.get(hub, {})
                    if hub in stored and len(row) == len(stored[hub]):
                        assert not distance_test_keeps(
                            hub, row, stored[hub], edges, limit
                        ), (context, hub)
            rebuilt = HubIndex.build(
                shadow, capacity=8, hubs=engine.index.hubs,
                explore_limit=limit,
                backend=ReverseKRanksEngine(shadow).compact_graph(),
            )
            assert index_signature(engine.index) == index_signature(
                rebuilt
            ), context
            assert engine.index._dists == rebuilt._dists, context
            mine = engine.index.export_state()["known"]
            fresh = rebuilt.export_state()["known"]
            for hub in engine.index.last_repair[1]:
                assert list(mine.get(hub, {}).items()) == list(
                    fresh.get(hub, {}).items()
                ), (context, hub)
            if engine._pool is not None:
                master = (
                    engine.compact_graph().content_digest(),
                    engine.index.content_digest(),
                )
                assert engine._pool.replica_digests() == [master, master], (
                    context
                )
