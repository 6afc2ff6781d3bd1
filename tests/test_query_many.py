"""Tests for the batch query API (`ReverseKRanksEngine.query_many`).

Covers batch-vs-single equivalence for every algorithm, the CSR compile
cache, one run per distinct query, warm hub-index reuse across a batch,
bichromatic batches, and the stale-hub-index regression (a graph mutation
after index build must be rejected at query time, not silently served).
"""

from __future__ import annotations

import multiprocessing
import random

import pytest

import rank_oracle
from repro.core import (
    AlgorithmKind,
    ReverseKRanksEngine,
    dynamic_reverse_k_ranks,
    naive_reverse_k_ranks,
)
from repro.core.hub_index import HubIndex
from repro.errors import (
    IndexParameterError,
    InvalidKError,
    InvalidQueryNodeError,
    ParallelExecutionError,
)

from conftest import result_digest, road_lattice, sample_queries


ALL_KINDS = (
    AlgorithmKind.NAIVE,
    AlgorithmKind.STATIC,
    AlgorithmKind.DYNAMIC,
    AlgorithmKind.INDEXED,
)


@pytest.fixture()
def warm_engine(random_gnp):
    engine = ReverseKRanksEngine(random_gnp)
    engine.build_index(num_hubs=3, capacity=16)
    return engine


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_batch_matches_single_queries(warm_engine, random_gnp, kind):
    queries = sample_queries(random_gnp, 4)
    batch = warm_engine.query_many(queries, 3, algorithm=kind)
    assert len(batch) == len(queries)
    for query, result in zip(queries, batch):
        single = warm_engine.query(query, 3, algorithm=kind)
        assert result.query == query
        assert result.as_pairs() == single.as_pairs()


@pytest.mark.parametrize("kind", (AlgorithmKind.NAIVE, AlgorithmKind.DYNAMIC))
def test_csr_and_dict_batches_identical(random_gnp, kind):
    # Batches over the engine's cached compilation answer exactly like the
    # module-level entry points handed the dict graph (compiled per call),
    # and every listed rank is the textbook oracle's.
    engine = ReverseKRanksEngine(random_gnp)
    queries = sample_queries(random_gnp, 4)
    direct = {
        AlgorithmKind.NAIVE: naive_reverse_k_ranks,
        AlgorithmKind.DYNAMIC: dynamic_reverse_k_ranks,
    }[kind]
    batch = engine.query_many(queries, 3, algorithm=kind)
    for query, result in zip(queries, batch):
        reference = direct(random_gnp, query, 3)
        assert result.as_pairs() == reference.as_pairs()
        assert result_digest(result) == result_digest(reference)
        for node, rank in result.as_pairs():
            assert rank == rank_oracle.rank(random_gnp, node, query)


def _twin_engines(graph, partition=None, indexed=False):
    """Two identical engines: one answers query(), the other query_many()
    — indexes learn, so one engine answering both would drift."""
    engines = []
    for _ in range(2):
        engine = ReverseKRanksEngine(graph, partition=partition)
        if indexed:
            engine.build_index(num_hubs=3, explore_limit=10, capacity=8)
        engines.append(engine)
    return engines


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_single_query_runs_on_the_engine_compilation(random_gnp, kind):
    single, batched = _twin_engines(
        random_gnp, indexed=kind is AlgorithmKind.INDEXED
    )
    for query in sample_queries(random_gnp, 4):
        one = single.query(query, 3, algorithm=kind)
        (many,) = batched.query_many([query], 3, algorithm=kind)
        assert one.as_pairs() == many.as_pairs()
        assert result_digest(one) == result_digest(many)
    # Every query() reused the one cached compilation.
    recompactions = single.registry.get("repro_csr_recompactions_total")
    assert recompactions.value == 1


@pytest.mark.parametrize(
    "kind", (AlgorithmKind.NAIVE, AlgorithmKind.STATIC, AlgorithmKind.DYNAMIC)
)
def test_single_bichromatic_query_uses_cached_masks(bichromatic_case, kind):
    single, batched = _twin_engines(
        bichromatic_case.graph, partition=bichromatic_case
    )
    masks = None
    for query in sorted(bichromatic_case.facilities, key=repr)[:3]:
        one = single.query(query, 3, algorithm=kind)
        (many,) = batched.query_many([query], 3, algorithm=kind)
        assert one.as_pairs() == many.as_pairs()
        assert result_digest(one) == result_digest(many)
        if kind is not AlgorithmKind.NAIVE:
            assert single._masks is not None
            assert masks is None or single._masks is masks
            masks = single._masks
    recompactions = single.registry.get("repro_csr_recompactions_total")
    assert recompactions.value == 1


def test_csr_compiled_once_per_graph_version(random_gnp):
    engine = ReverseKRanksEngine(random_gnp)
    first = engine.compact_graph()
    engine.query_many(sample_queries(random_gnp, 3), 2)
    # Same version -> same compilation object across batches.
    assert engine.compact_graph() is first


def test_csr_recompiled_after_mutation():
    from repro.graph import Graph

    graph = Graph()
    for node in range(5):
        graph.add_edge(node, node + 1, 1.0)
    engine = ReverseKRanksEngine(graph)
    stale = engine.compact_graph()
    graph.add_edge(0, 5, 0.5)
    fresh = engine.compact_graph()
    assert fresh is not stale
    assert fresh.source_version == graph.version
    # And the recompiled backend answers with the mutated topology.
    batch = engine.query_many([5], 2, algorithm=AlgorithmKind.NAIVE)
    assert batch[0].as_pairs() == engine.query(5, 2, "naive").as_pairs()


def test_repeated_queries_share_one_result(warm_engine, random_gnp):
    queries = sample_queries(random_gnp, 2)
    pattern = [queries[0], queries[1], queries[0], queries[0]]
    batch = warm_engine.query_many(pattern, 3, algorithm="dynamic")
    assert batch[0] is batch[2] is batch[3]
    assert batch[1] is not batch[0]
    assert [result.query for result in batch] == pattern


def test_warm_index_learns_across_batch(random_gnp):
    engine = ReverseKRanksEngine(random_gnp)
    engine.build_index(num_hubs=2, explore_limit=4, capacity=16)
    known_before = engine.index.num_known_ranks
    engine.query_many(sample_queries(random_gnp, 4), 3, algorithm="indexed")
    assert engine.index.num_known_ranks > known_before


def test_bichromatic_batch(bichromatic_case):
    engine = ReverseKRanksEngine(bichromatic_case.graph, partition=bichromatic_case)
    queries = sorted(bichromatic_case.facilities, key=repr)[:3]
    batch = engine.query_many(queries, 2, algorithm="dynamic")
    for query, result in zip(queries, batch):
        assert result.as_pairs() == engine.query(query, 2, "dynamic").as_pairs()
        assert all(bichromatic_case.is_community(node) for node in result.nodes())


def test_batch_validates_before_any_work(warm_engine, random_gnp):
    queries = sample_queries(random_gnp, 2) + ["missing"]
    with pytest.raises(InvalidQueryNodeError):
        warm_engine.query_many(queries, 3)
    with pytest.raises(InvalidKError):
        warm_engine.query_many(sample_queries(random_gnp, 2), 0)


@pytest.mark.parametrize("bad_k", (0, -1, True, 2.5))
def test_empty_batch_still_validates_k(warm_engine, bad_k):
    with pytest.raises(InvalidKError):
        warm_engine.query_many([], bad_k)


def test_empty_batch_with_valid_k_returns_empty(warm_engine):
    assert warm_engine.query_many([], 3) == []


def test_batch_indexed_requires_index(random_gnp):
    engine = ReverseKRanksEngine(random_gnp)
    with pytest.raises(IndexParameterError):
        engine.query_many(sample_queries(random_gnp, 2), 2, algorithm="indexed")


# ----------------------------------------------------------------------
# Stale hub index regression (graph mutated after index build)
# ----------------------------------------------------------------------
def _mutable_graph():
    from repro.graph import Graph

    graph = Graph()
    for node in range(8):
        graph.add_edge(node, node + 1, 1.0)
    return graph


@pytest.mark.parametrize(
    "mutate",
    [
        lambda graph: graph.add_edge(0, 8, 0.25),
        lambda graph: graph.remove_edge(3, 4),
        lambda graph: graph.add_edge(0, 1, 0.1),  # weight update via collapse
        lambda graph: graph.add_node("isolated"),
        lambda graph: graph.remove_node(8),
    ],
)
def test_stale_index_rejected_at_query_time(mutate):
    graph = _mutable_graph()
    engine = ReverseKRanksEngine(graph)
    engine.build_index(num_hubs=2, capacity=8)
    assert engine.query(4, 2, "indexed").is_full()

    mutate(graph)
    with pytest.raises(IndexParameterError, match="stale"):
        engine.query(4, 2, "indexed")
    with pytest.raises(IndexParameterError, match="stale"):
        engine.query_many([4], 2, algorithm="indexed")
    # Non-indexed algorithms keep working on the mutated graph.
    assert engine.query(4, 2, "dynamic").rank_values() == engine.query(
        4, 2, "naive"
    ).rank_values()
    # Rebuilding restores indexed service.
    engine.build_index(num_hubs=2, capacity=8)
    assert engine.query(4, 2, "indexed").rank_values() == engine.query(
        4, 2, "naive"
    ).rank_values()


def test_noop_mutations_do_not_invalidate_index():
    graph = _mutable_graph()
    index = HubIndex.build(graph, num_hubs=2, capacity=8)
    graph.add_node(0)  # already present
    graph.add_edge(0, 1, 5.0)  # heavier parallel edge is collapsed away
    index.ensure_compatible(graph, 2)  # still fresh


def test_engine_rejects_stale_index_at_construction():
    graph = _mutable_graph()
    index = HubIndex.build(graph, num_hubs=2, capacity=8)
    graph.add_edge(0, 8, 0.25)
    with pytest.raises(IndexParameterError, match="stale"):
        ReverseKRanksEngine(graph, index=index)


# ----------------------------------------------------------------------
# Parallel batches share results among repeats, too
# ----------------------------------------------------------------------
# Every batch's dedupe is its result cache: it runs before the
# sequential/parallel choice, so only distinct queries are sharded and
# duplicate positions share one QueryResult object, exactly as in a
# sequential batch.

_HAVE_FORK = "fork" in __import__("multiprocessing").get_all_start_methods()
_needs_fork = pytest.mark.skipif(
    not _HAVE_FORK, reason="fork start method unavailable"
)


@_needs_fork
def test_parallel_batch_honours_cache(random_gnp):
    queries = sample_queries(random_gnp, 3)
    pattern = [
        queries[0], queries[1], queries[0], queries[2],
        queries[1], queries[0],
    ]
    engine = ReverseKRanksEngine(random_gnp)
    engine.build_index(num_hubs=3, capacity=16)
    with engine:
        batch = engine.query_many(
            pattern, 3, algorithm="dynamic", workers=2,
            worker_context="fork",
        )
        assert engine.last_batch_ipc_bytes > 0  # it ran on the pool
        # Duplicate positions share one object...
        assert batch[0] is batch[2] is batch[5]
        assert batch[1] is batch[4]
        assert batch[3] is not batch[0]
        # ...and every position answers its own query, in input order.
        reference = ReverseKRanksEngine(random_gnp)
        for query, result in zip(pattern, batch):
            assert result.as_pairs() == reference.query(
                query, 3, "dynamic"
            ).as_pairs()


@_needs_fork
def test_parallel_cache_single_unique_query_runs_sequentially(random_gnp):
    """All-duplicates batches collapse to one query: nothing to shard."""
    query = sample_queries(random_gnp, 1)[0]
    engine = ReverseKRanksEngine(random_gnp)
    with engine:
        batch = engine.query_many(
            [query] * 5, 3, algorithm="dynamic", workers=2,
            worker_context="fork",
        )
        assert all(result is batch[0] for result in batch)
        # The degenerate batch never started the pool.
        assert engine._pool is None


@_needs_fork
def test_parallel_min_batch_one_dispatches_singles(random_gnp):
    """parallel_min_batch=1 sends even a lone query through the pool.

    The serving benchmark's one-query-per-request baseline depends on
    this: without the knob the single-query fallback would quietly
    measure the sequential path instead of per-request dispatch cost.
    """
    query = sample_queries(random_gnp, 1)[0]
    engine = ReverseKRanksEngine(random_gnp)
    engine.parallel_min_batch = 1
    with engine:
        batch = engine.query_many(
            [query], 3, algorithm="dynamic", workers=2,
            worker_context="fork",
        )
        assert engine._pool is not None
        reference = ReverseKRanksEngine(random_gnp)
        assert batch[0].as_pairs() == reference.query(
            query, 3, "dynamic"
        ).as_pairs()


def _counters(stats):
    counters = stats.as_dict()
    counters.pop("elapsed_seconds")
    return counters


@_needs_fork
def test_batch_stats_count_each_executed_query_once():
    """A repeated query runs once, so ``last_batch_stats`` counts it once.

    Sequential, parallel (which dispatches the distinct queries) and the
    distinct-only batch agree on every counter.
    """
    graph = road_lattice(12, random.Random(3))
    batch = [5, 5, 17, 5]
    engine = ReverseKRanksEngine(graph)
    with engine:
        engine.query_many([17, 5], 8, algorithm="dynamic")
        unique = _counters(engine.last_batch_stats)
        engine.query_many(batch, 8, algorithm="dynamic")
        sequential = _counters(engine.last_batch_stats)
        engine.query_many(
            batch, 8, algorithm="dynamic", workers=2, worker_context="fork",
        )
        parallel = _counters(engine.last_batch_stats)
    assert unique["rank_refinements"] > 0
    assert sequential == parallel == unique


@_needs_fork
def test_prepared_pool_is_kept_under_the_default_start_method(random_gnp):
    """``worker_context=None`` names the platform default (fork on Linux).

    A batch without a start method keeps a pool prepared with the
    default one; an unknown method raises; another method rebuilds.
    """
    queries = sample_queries(random_gnp, 4)
    engine = ReverseKRanksEngine(random_gnp)
    default = multiprocessing.get_context().get_start_method()
    other = next(
        method
        for method in ("spawn", "forkserver", "fork")
        if method != default
        and method in multiprocessing.get_all_start_methods()
    )
    with engine:
        pool = engine.prepare_parallel(2, default)
        pids = pool.worker_pids
        engine.query_many(queries, 3, algorithm="dynamic", workers=2)
        assert engine._pool is pool and not pool.is_closed
        assert pool.worker_pids == pids
        with pytest.raises(ParallelExecutionError, match="start method"):
            engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context="bogus",
            )
        engine.query_many(
            queries, 3, algorithm="dynamic", workers=2, worker_context=other,
        )
        assert pool.is_closed
        assert engine._pool.start_method == other
