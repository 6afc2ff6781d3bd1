"""Incremental graph maintenance: overlays, repairs, live pool sync.

Unit-level coverage for the delta-overlay/index-repair machinery that
``engine.apply_updates`` composes: Graph version-counter pins (no-op
mutations must not invalidate caches), OverlayGraph construction and
side-table transport, apply_updates semantics (validation, no-op early
return, recompaction triggers, all-or-nothing batches), hub-index repair
deltas and replica merging, and — under fork — the worker-pool graph
broadcast that replaces teardown.  The end-to-end differential sweep
lives in ``test_fuzz_mutation.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import signal
import time

import pytest

from repro import faults
from repro.core import ReverseKRanksEngine
from repro.core.hub_index import HubIndex, HubIndexDelta
from repro.core.validation import results_equivalent
from repro.errors import (
    BichromaticError,
    EdgeNotFoundError,
    GraphValidationError,
    IndexParameterError,
    InvalidWeightError,
    NodeNotFoundError,
    ParallelExecutionError,
)
from repro.graph import BichromaticPartition, CompactGraph, Graph
from repro.graph.overlay import OverlayGraph

from conftest import (
    _gnp_graph,
    index_signature,
    road_lattice,
    road_traffic,
    sample_queries,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="fork start method unavailable"
)


def _mutable_gnp(seed: int = 7, num_nodes: int = 22, directed: bool = False):
    """Private copy of the conftest G(n, p): mutation tests need their own."""
    return _gnp_graph(num_nodes, 0.2, seed=seed, directed=directed)


def _tie_heavy_graph(seed: int, num_nodes: int = 40) -> Graph:
    """Undirected graph with weights in {1, 2}: distance ties everywhere."""
    rng = random.Random(4_000 + seed)
    graph = Graph(name=f"ties-{seed}")
    graph.add_nodes(range(num_nodes))
    for source in range(num_nodes):
        for target in range(source + 1, num_nodes):
            if rng.random() < 0.12:
                graph.add_edge(source, target, rng.choice([1.0, 2.0]))
    return graph


def _stats_dict(result):
    payload = result.stats.as_dict()
    payload.pop("elapsed_seconds")
    return payload


def _assert_same_answers(engine, reference, queries, k=3, algorithm="dynamic"):
    """Bit-identical ranks AND QueryStats (minus wall-clock) per query."""
    got = engine.query_many(queries, k, algorithm=algorithm)
    want = reference.query_many(queries, k, algorithm=algorithm)
    for mine, theirs in zip(got, want):
        assert mine.as_pairs() == theirs.as_pairs(), (algorithm, mine.query)
        assert _stats_dict(mine) == _stats_dict(theirs), (algorithm, mine.query)


# ----------------------------------------------------------------------
# Satellite: no-op mutations must not bump Graph.version
# ----------------------------------------------------------------------
class TestVersionPins:
    def test_adding_existing_node_keeps_version(self):
        graph = Graph()
        graph.add_node("a")
        version = graph.version
        graph.add_node("a")
        assert graph.version == version

    def test_readding_edge_with_equal_weight_keeps_version(self):
        graph = Graph()
        graph.add_edge("a", "b", 2.0)
        version = graph.version
        graph.add_edge("a", "b", 2.0)
        assert graph.version == version
        assert graph.weight("a", "b") == 2.0

    def test_readding_edge_with_larger_weight_keeps_version(self):
        # Parallel edges collapse to the minimum: a heavier duplicate
        # changes nothing, so no cache may be invalidated for it.
        graph = Graph()
        graph.add_edge("a", "b", 2.0)
        version = graph.version
        graph.add_edge("a", "b", 5.0)
        assert graph.version == version
        assert graph.weight("a", "b") == 2.0

    def test_lowering_edge_weight_bumps_version(self):
        graph = Graph()
        graph.add_edge("a", "b", 2.0)
        version = graph.version
        graph.add_edge("a", "b", 1.0)
        assert graph.version == version + 1
        assert graph.weight("a", "b") == 1.0

    def test_self_loop_keeps_version(self):
        graph = Graph()
        graph.add_node("a")
        version = graph.version
        graph.add_edge("a", "a", 1.0)
        assert graph.version == version
        assert not graph.has_edge("a", "a")

    def test_noop_batch_invalidates_nothing(self):
        graph = _mutable_gnp()
        engine = ReverseKRanksEngine(graph)
        engine.build_index(num_hubs=3, capacity=8)
        csr = engine.compact_graph()
        version = graph.version
        revision = engine.index.revision

        report = engine.apply_updates(
            [
                ("add_node", 0),
                ("add_edge", 0, 0, 1.0),
                ("add_edge", 0, 1, 1000.0) if graph.has_edge(0, 1)
                else ("add_node", 1),
            ]
        )

        assert report.applied == 0
        assert report.noops == 3
        assert report.touched == ()
        assert not report.recompacted
        assert not report.index_repaired
        assert report.index_delta is None
        assert graph.version == version
        assert engine.compact_graph() is csr  # CSR cache survived
        assert engine.index.revision == revision
        noop_counter = engine.registry.get("repro_graph_updates_total")
        assert noop_counter.labels(result="noop").value == 3


# ----------------------------------------------------------------------
# OverlayGraph
# ----------------------------------------------------------------------
class TestOverlayGraph:
    def _overlaid(self, seed=3):
        graph = _mutable_gnp(seed=seed, num_nodes=14)
        base = CompactGraph.from_graph(graph)
        edges = sorted(graph.edges())
        graph.remove_edge(*edges[0][:2])
        graph.add_edge(edges[1][0], edges[2][1], 0.75)
        graph.add_edge(5, 99, 1.5)  # appends node 99
        touched = {edges[0][0], edges[0][1], edges[1][0], edges[2][1], 5}
        overlay = OverlayGraph.from_base(graph, base, touched, appended=[99])
        return graph, base, overlay

    def test_enumeration_matches_fresh_compile(self):
        graph, _, overlay = self._overlaid()
        fresh = CompactGraph.from_graph(graph)
        assert list(overlay.edges()) == list(fresh.edges())
        for node in graph.nodes():
            assert list(overlay.neighbor_items(node)) == list(
                fresh.neighbor_items(node)
            )
            assert list(overlay.in_neighbor_items(node)) == list(
                fresh.in_neighbor_items(node)
            )
            assert overlay.out_degree(node) == fresh.out_degree(node)
        assert overlay.num_edges == fresh.num_edges
        assert overlay.num_nodes == fresh.num_nodes

    def test_appended_node_accounting(self):
        graph, base, overlay = self._overlaid()
        assert overlay.appended_nodes == [99]
        assert overlay.num_nodes == base.num_nodes + 1
        assert overlay.has_edge(5, 99)
        assert overlay.overlay_rows >= 5

    def test_state_round_trip_is_bit_identical(self):
        """A starting worker's seed — the overlay's delta against its
        base, the whole side-table — rebuilds the overlay bit for bit."""
        _, base, overlay = self._overlaid()
        seed = pickle.loads(pickle.dumps(overlay.overlay_delta(base)))
        assert seed["out_rows"].keys() == overlay.overlay_out.keys()
        assert seed["appended"] == [99]
        rebuilt = OverlayGraph.from_delta(base, seed)
        assert list(rebuilt.edges()) == list(overlay.edges())
        assert rebuilt.overlay_rows == overlay.overlay_rows
        assert rebuilt.appended_nodes == overlay.appended_nodes
        assert rebuilt.content_digest() == overlay.content_digest()

    def test_state_refuses_foreign_base(self):
        """A delta cut over another base is refused by the base's digest,
        even when the version it applies on matches."""
        _, base, overlay = self._overlaid()
        other = CompactGraph.from_graph(_mutable_gnp(seed=9, num_nodes=14))
        seed = dict(overlay.overlay_delta(base), on_version=other.version)
        with pytest.raises(GraphValidationError, match="digest mismatch"):
            OverlayGraph.from_delta(other, seed)

    def test_state_refuses_unknown_format(self):
        _, base, overlay = self._overlaid()
        with pytest.raises(GraphValidationError, match="unrecognised"):
            OverlayGraph.from_delta(base, {"format": "bogus"})
        # The layout before deltas carried the base digest.
        older = dict(overlay.overlay_delta(base), format="repro-overlay-delta/1")
        del older["base_digest"]
        with pytest.raises(GraphValidationError, match="unrecognised"):
            OverlayGraph.from_delta(base, older)

    def test_overlay_refuses_pickle(self):
        _, _, overlay = self._overlaid()
        with pytest.raises(GraphValidationError):
            pickle.dumps(overlay)

    @pytest.mark.parametrize("directed", [False, True])
    def test_batch_overlay_equals_one_over_the_cumulative_sets(self, directed):
        """``apply_updates`` re-extracts only the batch's touched and
        appended rows and takes every other row, the same object, from
        the previous overlay; the result equals an overlay built from
        scratch over everything touched and appended since the base."""
        rng = random.Random(17)
        graph = _gnp_graph(400, 0.012, seed=17, directed=directed)
        engine = ReverseKRanksEngine(graph)
        base = engine.compact_graph()
        touched, appended = set(), []
        for round_number in range(12):
            edges = sorted(graph.edges(), key=repr)
            source, target, weight = rng.choice(edges)
            ops = [
                ("remove_edge", *rng.choice(edges)[:2]),
                ("add_edge", source, target, round(weight * 0.5, 2)),
                ("add_edge", rng.randrange(400), f"new-{round_number}", 1.5),
            ]
            if round_number % 3 == 0:
                ops.append(("add_node", f"lone-{round_number}"))
            previous = engine.compact_graph()
            report = engine.apply_updates(ops)
            assert not report.recompacted
            touched.update(report.touched)
            appended += report.appended
            overlay = engine.compact_graph()
            fresh = OverlayGraph.from_base(graph, base, touched, appended)
            assert overlay.overlay_out == fresh.overlay_out
            assert overlay.overlay_in == fresh.overlay_in
            assert overlay.appended_nodes == fresh.appended_nodes
            assert overlay.content_digest() == fresh.content_digest()
            if previous is not base:
                batch = {overlay.index_of(node) for node in report.touched}
                for index, row in previous.overlay_out.items():
                    if index not in batch:
                        assert overlay.overlay_out[index] is row

    @pytest.mark.parametrize("directed", [False, True])
    def test_delta_chain_rebuilds_each_overlay(self, directed):
        """A holder that applies each batch's ``overlay_delta`` to what it
        holds, starting from the base, mirrors every overlay: the delta
        carries exactly the batch's touched and appended rows, and the
        holder's overlay equals the master's, content digest included."""
        rng = random.Random(19)
        graph = _gnp_graph(120, 0.04, seed=19, directed=directed)
        engine = ReverseKRanksEngine(graph)
        held = engine.compact_graph()
        for round_number in range(6):
            edges = sorted(graph.edges(), key=repr)
            ops = [
                ("remove_edge", *rng.choice(edges)[:2]),
                ("add_edge", rng.randrange(120), f"new-{round_number}", 1.5),
            ]
            if round_number % 2:
                ops.append(("add_node", f"lone-{round_number}"))
            shipped = engine.compact_graph()
            report = engine.apply_updates(ops)
            assert not report.recompacted
            overlay = engine.compact_graph()
            delta = pickle.loads(pickle.dumps(overlay.overlay_delta(shipped)))
            batch = {overlay.index_of(node) for node in report.touched}
            assert set(delta["out_rows"]) == batch
            assert delta["appended"] == list(report.appended)
            if directed:
                assert set(delta["in_rows"]) == batch
            else:
                assert delta["in_rows"] is None
            held = OverlayGraph.from_delta(held, delta)
            assert held.overlay_out == overlay.overlay_out
            assert held.overlay_in == overlay.overlay_in
            assert held.appended_nodes == overlay.appended_nodes
            assert held.content_digest() == overlay.content_digest()
            assert list(held.edges()) == list(overlay.edges())

    def test_delta_refuses_another_version(self):
        """A delta applies only on the version it was cut against."""
        graph, base, overlay = self._overlaid()
        delta = overlay.overlay_delta(base)
        assert OverlayGraph.from_delta(base, delta).content_digest() == (
            overlay.content_digest()
        )
        with pytest.raises(GraphValidationError, match="refusing to apply"):
            OverlayGraph.from_delta(overlay, delta)
        with pytest.raises(GraphValidationError, match="unrecognised"):
            OverlayGraph.from_delta(base, dict(delta, format="repro-overlay/1"))

    def test_delta_refuses_a_foreign_base(self):
        _, _, overlay = self._overlaid()
        other = CompactGraph.from_graph(_mutable_gnp(seed=9, num_nodes=14))
        with pytest.raises(GraphValidationError, match="different base"):
            overlay.overlay_delta(other)

    def test_previous_overlay_must_share_the_base(self):
        graph, _, overlay = self._overlaid()
        other = CompactGraph.from_graph(graph)
        with pytest.raises(GraphValidationError, match="different base"):
            OverlayGraph.from_base(graph, other, (), previous=overlay)

    def test_node_removal_requires_recompaction(self):
        graph = _mutable_gnp(seed=4, num_nodes=12)
        base = CompactGraph.from_graph(graph)
        victim = sorted(graph.nodes())[0]
        neighbors = set(graph.neighbors(victim))
        graph.remove_node(victim)
        with pytest.raises(GraphValidationError, match="node accounting"):
            OverlayGraph.from_base(graph, base, neighbors)


# ----------------------------------------------------------------------
# engine.apply_updates
# ----------------------------------------------------------------------
class TestApplyUpdates:
    def test_malformed_op_rejected_before_any_mutation(self):
        graph = _mutable_gnp(seed=5)
        engine = ReverseKRanksEngine(graph)
        version = graph.version
        edges = sorted(graph.edges())
        batch = [
            ("remove_edge", edges[0][0], edges[0][1]),
            ("add_edge", 1),  # malformed: too few fields
        ]
        with pytest.raises(GraphValidationError, match="malformed"):
            engine.apply_updates(batch)
        assert graph.version == version  # first op was NOT applied
        assert graph.has_edge(edges[0][0], edges[0][1])

    @pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf"), "x"])
    def test_invalid_weight_rejected_before_any_mutation(self, weight):
        # A valid op ahead of the bad weight must not be applied either.
        graph = Graph(name="grid-5x5")
        for node in range(25):
            if node % 5 < 4:
                graph.add_edge(node, node + 1, 1.0 + node % 3)
            if node < 20:
                graph.add_edge(node, node + 5, 1.5)
        engine = ReverseKRanksEngine(graph)
        engine.build_index(capacity=4, num_hubs=3)
        engine.query_many([0, 12], 3, algorithm="indexed")
        version, num_edges = graph.version, graph.num_edges
        compiled, revision = engine.compact_graph(), engine.index.revision
        batch = [("add_edge", 0, 24, 2.0), ("add_edge", 1, 23, weight)]
        with pytest.raises(InvalidWeightError):
            engine.apply_updates(batch)
        assert (graph.version, graph.num_edges) == (version, num_edges)
        assert not graph.has_edge(0, 24)
        assert engine.compact_graph() is compiled
        assert engine.index.revision == revision

    def test_non_tuple_op_rejected(self):
        engine = ReverseKRanksEngine(_mutable_gnp(seed=5))
        with pytest.raises(GraphValidationError, match="not an operation"):
            engine.apply_updates(["add_edge"])

    def test_bichromatic_engine_refuses_updates(self):
        graph = _mutable_gnp(seed=6)
        nodes = sorted(graph.nodes())
        partition = BichromaticPartition(graph, nodes[len(nodes) // 2 :])
        engine = ReverseKRanksEngine(graph, partition=partition)
        with pytest.raises(BichromaticError, match="monochromatic-only"):
            engine.apply_updates([("add_node", "new")])

    def test_compact_graph_engine_refuses_updates(self):
        compiled = CompactGraph.from_graph(_mutable_gnp(seed=6))
        engine = ReverseKRanksEngine(compiled)
        with pytest.raises(GraphValidationError, match="immutable"):
            engine.apply_updates([("add_node", "new")])

    def test_effective_batch_lands_as_overlay(self):
        graph = _mutable_gnp(seed=8)
        shadow = graph.copy()
        engine = ReverseKRanksEngine(graph)
        engine.compact_graph()
        edges = sorted(graph.edges())

        report = engine.apply_updates(
            [
                ("remove_edge", edges[0][0], edges[0][1]),
                ("add_edge", edges[1][0], edges[2][1], 0.5),
                ("add_edge", 3, "fresh-node", 2.0),
            ]
        )
        shadow.remove_edge(edges[0][0], edges[0][1])
        shadow.add_edge(edges[1][0], edges[2][1], 0.5)
        shadow.add_edge(3, "fresh-node", 2.0)

        assert report.applied == 3
        assert not report.recompacted
        assert report.overlay_rows > 0
        assert report.appended == ("fresh-node",)
        assert report.graph_version == graph.version
        csr = engine.compact_graph()
        assert isinstance(csr, OverlayGraph)

        reference = ReverseKRanksEngine(shadow)
        reference.compact_graph()
        queries = sample_queries(shadow, 4)
        _assert_same_answers(engine, reference, queries, algorithm="dynamic")
        _assert_same_answers(engine, reference, queries, algorithm="static")

    def test_node_removal_forces_recompaction(self):
        graph = _mutable_gnp(seed=9)
        engine = ReverseKRanksEngine(graph)
        engine.compact_graph()
        victim = sorted(graph.nodes())[-1]
        report = engine.apply_updates([("remove_node", victim)])
        assert report.recompacted
        assert report.removed == (victim,)
        assert report.overlay_rows == 0
        assert not isinstance(engine.compact_graph(), OverlayGraph)

    def test_overlay_threshold_forces_recompaction(self):
        """Past ``max(8, n // 4)`` touched nodes — 8 of 22 here — a batch
        recompacts; exactly 8 stays an overlay.  The count is cumulative
        over the batches since the base: a row a later batch touches
        again counts once, an appended node counts, and the batch that
        takes the count past the limit recompacts."""

        def cuts(nodes):
            # Weights are at least 1.0, so each cut is effective.
            return [
                ("add_edge", source, target, 0.5)
                for source, target in zip(nodes[::2], nodes[1::2])
            ]

        nodes = sorted(_mutable_gnp(seed=10).nodes())
        at_limit = ReverseKRanksEngine(_mutable_gnp(seed=10))
        at_limit.compact_graph()
        report = at_limit.apply_updates(cuts(nodes[:8]))
        assert not report.recompacted and report.overlay_rows == 8

        engine = ReverseKRanksEngine(_mutable_gnp(seed=10))
        engine.compact_graph()
        report = engine.apply_updates(cuts(nodes[:10]))
        assert report.recompacted
        recompactions = engine.registry.get("repro_csr_recompactions_total")
        # Initial compile + threshold-forced recompile.
        assert recompactions.value == 2

        cumulative = ReverseKRanksEngine(_mutable_gnp(seed=10))
        cumulative.compact_graph()
        outcomes = [
            (report.recompacted, report.overlay_rows)
            for report in map(
                cumulative.apply_updates,
                [
                    cuts(nodes[:4]),
                    # nodes[0] and nodes[1] again, then one touched and
                    # one appended node.
                    [
                        ("add_edge", nodes[0], nodes[1], 0.25),
                        ("add_edge", nodes[4], "new", 1.0),
                    ],
                    cuts(nodes[5:7]),
                    [("add_edge", nodes[7], nodes[0], 0.5)],
                ],
            )
        ]
        assert outcomes == [(False, 4), (False, 6), (False, 8), (True, 0)]
        recompactions = cumulative.registry.get("repro_csr_recompactions_total")
        assert recompactions.value == 2

    @needs_fork
    def test_missing_edge_leaves_engine_unchanged(self):
        """A failing batch is all-or-nothing: none of its ops applies.

        Tie-heavy graphs under a truncated explore_limit, where any
        stray repair would record other boundary-tie entries than a
        rebuild.
        """
        for seed in range(3):
            graph = _tie_heavy_graph(seed)
            shadow = graph.copy()
            with ReverseKRanksEngine(graph) as engine:
                engine.build_index(num_hubs=4, explore_limit=7, capacity=8)
                engine.prepare_parallel(2, "fork")
                compiled = engine.compact_graph()
                state = (
                    graph.version,
                    engine.index.revision,
                    engine._pool.worker_pids,
                )
                source, target, _ = sorted(graph.edges())[0]
                with pytest.raises(EdgeNotFoundError):
                    engine.apply_updates(
                        [
                            ("remove_edge", source, target),  # valid
                            ("add_edge", target, 0, 0.5),  # valid
                            ("remove_edge", 0, 0),  # missing: a self loop
                        ]
                    )
                assert graph.structurally_equal(shadow)
                assert engine.compact_graph() is compiled
                assert (
                    graph.version,
                    engine.index.revision,
                    engine._pool.worker_pids,
                ) == state
                rebuilt = HubIndex.build(
                    shadow, capacity=8, hubs=engine.index.hubs,
                    explore_limit=7, backend=CompactGraph.from_graph(shadow),
                )
                assert index_signature(engine.index) == index_signature(
                    rebuilt
                )
                reference = ReverseKRanksEngine(shadow, index=rebuilt)
                _assert_same_answers(
                    engine, reference, sample_queries(shadow, 4), k=4,
                    algorithm="indexed",
                )

    @pytest.mark.parametrize("directed", [False, True])
    def test_batch_is_checked_against_its_own_earlier_ops(self, directed):
        graph = _mutable_gnp(seed=11, directed=directed)
        shadow = graph.copy()
        engine = ReverseKRanksEngine(graph)
        compiled = engine.compact_graph()
        source, target, _ = sorted(graph.edges())[0]
        into_source = next(iter(graph.in_neighbors(source)))
        failing = [
            # An edge goes with a removed endpoint, in either direction,
            # and re-adding the node does not bring it back.
            [("remove_node", source), ("remove_edge", source, target)],
            [("remove_node", source), ("remove_edge", into_source, source)],
            [
                ("remove_node", source),
                ("add_node", source),
                ("remove_edge", source, target),
            ],
            [("remove_edge", source, target), ("remove_edge", source, target)],
            [
                ("add_edge", target, "new", 1.0),
                ("remove_node", "new"),
                ("remove_edge", target, "new"),
            ],
            [("remove_node", source), ("remove_node", source)],
        ]
        for batch in failing:
            with pytest.raises((EdgeNotFoundError, NodeNotFoundError)):
                engine.apply_updates(batch)
            assert graph.structurally_equal(shadow), batch
            assert engine.compact_graph() is compiled, batch
        if not directed:
            # One undirected edge, named from either end.
            with pytest.raises(EdgeNotFoundError):
                engine.apply_updates(
                    [
                        ("remove_edge", source, target),
                        ("remove_edge", target, source),
                    ]
                )
            assert graph.structurally_equal(shadow)

        # Adding then removing one edge succeeds: the removal sees the add.
        batch = [("add_edge", target, "new", 1.0), ("remove_edge", target, "new")]
        report = engine.apply_updates(batch)
        shadow.add_edge(target, "new", 1.0)
        shadow.remove_edge(target, "new")
        assert report.applied == 2
        assert graph.structurally_equal(shadow)
        reference = ReverseKRanksEngine(shadow)
        _assert_same_answers(engine, reference, sample_queries(shadow, 4))

    def test_missing_node_removal_raises(self):
        engine = ReverseKRanksEngine(_mutable_gnp(seed=12))
        with pytest.raises(NodeNotFoundError):
            engine.apply_updates([("remove_node", "ghost")])

    def test_update_counters_track_results(self):
        graph = _mutable_gnp(seed=13)
        engine = ReverseKRanksEngine(graph)
        engine.compact_graph()
        edges = sorted(graph.edges())
        engine.apply_updates(
            [
                ("remove_edge", edges[0][0], edges[0][1]),
                ("add_node", edges[0][0]),  # noop: exists
            ]
        )
        family = engine.registry.get("repro_graph_updates_total")
        assert family.labels(result="applied").value == 1
        assert family.labels(result="noop").value == 1


# ----------------------------------------------------------------------
# Hub-index repair deltas
# ----------------------------------------------------------------------
class TestIndexRepair:
    def _indexed_engine(self, seed=21):
        graph = _mutable_gnp(seed=seed)
        engine = ReverseKRanksEngine(graph)
        engine.build_index(num_hubs=3, capacity=8)
        return graph, engine

    def test_repair_delta_versions_chain(self):
        graph, engine = self._indexed_engine()
        pre_version = graph.version
        edges = sorted(graph.edges())
        report = engine.apply_updates(
            [("remove_edge", edges[0][0], edges[0][1])]
        )
        delta = report.index_delta
        assert isinstance(delta, HubIndexDelta)
        assert delta.graph_version == pre_version
        assert delta.repaired_to_version == graph.version

    def test_replica_merges_repair_delta(self):
        graph, engine = self._indexed_engine(seed=22)
        replica = HubIndex.from_state(graph, engine.index.export_state())
        edges = sorted(graph.edges())
        report = engine.apply_updates(
            [
                ("remove_edge", edges[0][0], edges[0][1]),
                ("add_edge", edges[1][0], edges[2][1], 0.4),
            ]
        )
        replica.merge_delta(report.index_delta)
        assert replica.export_state() == engine.index.export_state()

    def test_stale_repair_delta_refuses_to_chain(self):
        graph, engine = self._indexed_engine(seed=23)
        replica = HubIndex.from_state(graph, engine.index.export_state())
        edges = sorted(graph.edges())
        first = engine.apply_updates(
            [("remove_edge", edges[0][0], edges[0][1])]
        )
        second = engine.apply_updates(
            [("remove_edge", edges[1][0], edges[1][1])]
        )
        # Skipping ``first`` leaves a hole in the version chain.
        with pytest.raises(IndexParameterError, match="does not chain"):
            replica.merge_delta(second.index_delta)
        # Replaying in order walks the replica forward.
        replica.merge_delta(first.index_delta)
        replica.merge_delta(second.index_delta)
        assert replica.export_state() == engine.index.export_state()

    def test_chain_replays_under_a_truthiness_test(self):
        """A repair delta is truthy even when it carries no entry: it
        still advances the version.  Replayed the way a journal load
        does (``if delta: merge_delta(delta)``), the chain reaches the
        master's state; skipping an empty one would break it."""
        rng = random.Random(5)
        graph = road_lattice(16, rng)
        shadow = graph.copy()
        engine = ReverseKRanksEngine(graph)
        engine.build_index(num_hubs=4, explore_limit=40, capacity=8)
        replica = HubIndex.from_state(graph, engine.index.export_state())
        closed = {}
        deltas = [
            engine.apply_updates(road_traffic(rng, shadow, closed)).index_delta
            for _ in range(12)
        ]
        assert any(
            not (delta.ranks or delta.explorations or delta.removed_sources)
            for delta in deltas
        )
        assert all(deltas)
        for delta in deltas:
            if delta:
                replica.merge_delta(delta)
        assert replica.export_state() == engine.index.export_state()
        assert not HubIndexDelta(graph_version=graph.version)

    def test_replica_trims_like_the_master(self):
        """A repair delta that trims resumed hubs brings a replica without
        stored distances to the master's state, pickle for pickle."""
        rng = random.Random(5)
        graph = road_lattice(12, rng)
        shadow = graph.copy()
        engine = ReverseKRanksEngine(graph)
        engine.build_index(num_hubs=6, explore_limit=48, capacity=8)
        closed = {}
        trims = 0
        for _ in range(6):
            replica = HubIndex.from_state(graph, engine.index.export_state())
            report = engine.apply_updates(road_traffic(rng, shadow, closed))
            trims += len(report.index_delta.trimmed)
            replica.merge_delta(pickle.loads(pickle.dumps(report.index_delta)))
            assert pickle.dumps(replica.export_state()) == pickle.dumps(
                engine.index.export_state()
            )
        assert trims > 0

    def test_delta_pickled_before_trims_merges(self):
        """A repair delta without the ``trimmed`` attribute (as unpickled
        from a journal written before trims existed) merges, read as
        empty."""
        graph, engine = self._indexed_engine(seed=26)
        # Distances are not exported: this repair drops, never trims.
        engine.adopt_index(
            HubIndex.from_state(graph, engine.index.export_state())
        )
        replica = HubIndex.from_state(graph, engine.index.export_state())
        edges = sorted(graph.edges())
        report = engine.apply_updates(
            [("remove_edge", edges[0][0], edges[0][1])]
        )
        old = pickle.loads(pickle.dumps(report.index_delta))
        assert old.trimmed == {}
        del old.__dict__["trimmed"]
        replica.merge_delta(old)
        assert replica.export_state() == engine.index.export_state()

    def test_trim_beyond_the_row_is_refused_before_any_change(self):
        graph, engine = self._indexed_engine(seed=27)
        index = engine.index
        state = index.export_state()
        hub = index.hubs[0]
        held = len(state["known"][hub])
        dropped = next(source for source in state["known"] if source != hub)
        delta = HubIndexDelta(
            graph_version=state["graph_version"],
            removed_sources=(dropped,),
            repaired_to_version=state["graph_version"] + 1,
            trimmed={hub: held + 1},
        )
        with pytest.raises(IndexParameterError, match="out of step"):
            index.merge_delta(delta)
        assert pickle.dumps(index.export_state()) == pickle.dumps(state)

    def test_repaired_index_matches_same_hub_rebuild(self):
        graph, engine = self._indexed_engine(seed=24)
        shadow = graph.copy()
        edges = sorted(graph.edges())
        engine.apply_updates(
            [
                ("remove_edge", edges[0][0], edges[0][1]),
                ("add_edge", edges[2][0], edges[3][1], 0.8),
            ]
        )
        shadow.remove_edge(edges[0][0], edges[0][1])
        shadow.add_edge(edges[2][0], edges[3][1], 0.8)

        reference = ReverseKRanksEngine(shadow)
        rebuilt = HubIndex.build(
            shadow,
            capacity=8,
            hubs=engine.index.hubs,
            backend=reference.compact_graph(),
        )
        assert engine.index._dists == rebuilt._dists
        reference.adopt_index(rebuilt)
        queries = sample_queries(shadow, 4)
        got = engine.query_many(queries, 3, algorithm="indexed")
        want = reference.query_many(queries, 3, algorithm="indexed")
        for mine, theirs in zip(got, want):
            assert mine.as_pairs() == theirs.as_pairs()
            assert _stats_dict(mine) == _stats_dict(theirs)


# ----------------------------------------------------------------------
# Satellite: graph updates must not tear down the worker pool
# ----------------------------------------------------------------------
@needs_fork
class TestPoolGraphSync:
    def _warm_engine(self, seed=31):
        graph = _mutable_gnp(seed=seed)
        engine = ReverseKRanksEngine(graph)
        engine.build_index(num_hubs=3, capacity=8)
        engine.parallel_min_batch = 1
        queries = sample_queries(graph, 6)
        engine.query_many(
            queries, 3, algorithm="dynamic", workers=2, worker_context="fork"
        )
        assert engine._pool is not None
        return graph, engine, queries

    def test_update_broadcast_keeps_worker_pids(self):
        graph, engine, queries = self._warm_engine()
        with engine:
            pids = sorted(p.pid for p in engine._pool._processes)
            edges = sorted(graph.edges())
            report = engine.apply_updates(
                [("remove_edge", edges[0][0], edges[0][1])]
            )
            assert report.pool_synced
            assert not report.recompacted
            assert engine._pool is not None
            assert sorted(p.pid for p in engine._pool._processes) == pids
            syncs = engine.registry.get("repro_pool_graph_syncs_total")
            assert syncs.value == 1

    def test_parallel_answers_match_sequential_after_update(self):
        graph, engine, queries = self._warm_engine(seed=32)
        with engine:
            shadow = graph.copy()
            edges = sorted(graph.edges())
            engine.apply_updates(
                [
                    ("remove_edge", edges[0][0], edges[0][1]),
                    ("add_edge", edges[1][0], edges[2][1], 0.6),
                ]
            )
            shadow.remove_edge(edges[0][0], edges[0][1])
            shadow.add_edge(edges[1][0], edges[2][1], 0.6)
            reference = ReverseKRanksEngine(shadow)
            reference.compact_graph()
            for algorithm in ("dynamic", "static"):
                parallel = engine.query_many(
                    queries, 3, algorithm=algorithm,
                    workers=2, worker_context="fork",
                )
                expected = reference.query_many(queries, 3, algorithm=algorithm)
                for mine, theirs in zip(parallel, expected):
                    assert mine.as_pairs() == theirs.as_pairs()
            parallel = engine.query_many(
                queries, 3, algorithm="indexed",
                workers=2, worker_context="fork",
            )
            sequential = engine.query_many(queries, 3, algorithm="indexed")
            for mine, theirs in zip(parallel, sequential):
                assert results_equivalent(mine, theirs)
                assert mine.rank_values() == theirs.rank_values()

    def test_recompaction_tears_pool_down(self):
        graph, engine, queries = self._warm_engine(seed=33)
        with engine:
            victim = sorted(graph.nodes())[-1]
            report = engine.apply_updates([("remove_node", victim)])
            assert report.recompacted
            assert not report.pool_synced
            assert engine._pool is None
            # Later queries still work, sequential or re-pooled.
            live_queries = [q for q in queries if q != victim]
            results = engine.query_many(live_queries, 3, algorithm="dynamic")
            assert len(results) == len(live_queries)

    def test_dead_worker_degrades_sync_gracefully(self):
        graph, engine, queries = self._warm_engine(seed=34)
        with engine:
            victim = engine._pool._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            deadline = time.monotonic() + 10.0
            while victim.is_alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            edges = sorted(graph.edges())
            shadow = graph.copy()
            report = engine.apply_updates(
                [("remove_edge", edges[0][0], edges[0][1])]
            )
            shadow.remove_edge(edges[0][0], edges[0][1])
            # The crash degraded the broadcast: pool dropped, not synced.
            assert not report.pool_synced
            assert engine._pool is None
            reference = ReverseKRanksEngine(shadow)
            reference.compact_graph()
            _assert_same_answers(
                engine, reference, queries, algorithm="dynamic"
            )

    @pytest.mark.parametrize("with_index", [False, True])
    def test_worker_error_during_sync_degrades_gracefully(self, with_index):
        """A worker that *raises* mid-sync costs the pool, not the update.

        The update is already applied (and the index repaired) when the
        broadcast fails, so raising would leave a caller retrying a
        batch that no longer applies.  Like a crash, the error drops the
        pool and reports ``pool_synced=False``; with an index the master
        explores the hubs its workers did not return, so it ends exactly
        where a repair without a pool does.
        """
        graph = _mutable_gnp(seed=37)
        twin = ReverseKRanksEngine(_mutable_gnp(seed=37))
        engine = ReverseKRanksEngine(graph)
        if with_index:
            for each in (engine, twin):
                each.build_index(num_hubs=3, capacity=8)
        edges = sorted(graph.edges())
        ops = [("remove_edge", edges[0][0], edges[0][1])]
        # Armed before the fork: each worker raises on its first task,
        # which is the update broadcast.
        faults.configure("worker.before_task=error#1*1")
        try:
            with engine:
                engine.prepare_parallel(2, "fork")
                report = engine.apply_updates(ops)
                assert report.applied == 1
                assert not report.pool_synced
                assert engine._pool is None
        finally:
            faults.clear()
        twin_report = twin.apply_updates(ops)
        assert pickle.dumps(report.index_delta) == pickle.dumps(
            twin_report.index_delta
        )
        assert pickle.dumps(engine.export_state()) == pickle.dumps(
            twin.export_state()
        )
        twin.compact_graph()
        _assert_same_answers(
            engine, twin, sample_queries(twin.graph, 6), algorithm="dynamic"
        )

    def test_pool_refuses_foreign_overlay_state(self):
        graph, engine, _ = self._warm_engine(seed=35)
        with engine:
            other_graph = _mutable_gnp(seed=36)
            other = ReverseKRanksEngine(other_graph)
            base = other.compact_graph()
            edges = sorted(other_graph.edges())
            other_graph.remove_edge(edges[0][0], edges[0][1])
            overlay = OverlayGraph.from_base(
                other_graph, base, {edges[0][0], edges[0][1]}
            )
            with pytest.raises(ParallelExecutionError, match="rebuild the pool"):
                engine._pool.update_graph(overlay)
