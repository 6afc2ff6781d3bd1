"""HubIndex snapshot/delta/merge semantics (the parallel learning protocol)."""

from __future__ import annotations

import pytest

from repro.core import AlgorithmKind, ReverseKRanksEngine
from repro.core.hub_index import HubIndex, HubIndexDelta
from repro.core.validation import results_equivalent
from repro.errors import IndexParameterError
from repro.graph import CompactGraph


def _build_index(graph, capacity=8, num_hubs=3):
    return HubIndex.build(graph, num_hubs=num_hubs, capacity=capacity)


# ----------------------------------------------------------------------
# Snapshot export / restore
# ----------------------------------------------------------------------
class TestExportState:
    def test_round_trip_preserves_knowledge(self, random_gnp):
        index = _build_index(random_gnp)
        csr = CompactGraph.from_graph(random_gnp)
        restored = HubIndex.from_state(csr, index.export_state())
        assert restored.capacity == index.capacity
        assert restored.hubs == index.hubs
        assert restored.num_known_ranks == index.num_known_ranks
        for hub in index.hubs:
            assert restored.explored_count(hub) == index.explored_count(hub)
            assert restored.check_value(hub) == index.check_value(hub)
        for node in random_gnp.nodes():
            assert restored.known_reverse_ranks(node) == index.known_reverse_ranks(
                node
            )

    def test_snapshot_is_isolated_from_later_learning(self, random_gnp):
        index = _build_index(random_gnp)
        state = index.export_state()
        known_in_snapshot = sum(len(targets) for targets in state["known"].values())
        index.record_rank("new-source", "new-target", 1)
        assert (
            sum(len(targets) for targets in state["known"].values())
            == known_in_snapshot
        )

    def test_stale_index_refuses_to_export(self, random_gnp):
        graph = random_gnp.copy()
        index = _build_index(graph)
        graph.add_edge(0, 9, 0.25)
        with pytest.raises(IndexParameterError):
            index.export_state()

    def test_restored_index_keeps_master_version_pin(self, random_gnp):
        index = _build_index(random_gnp)
        csr = CompactGraph.from_graph(random_gnp)
        restored = HubIndex.from_state(csr, index.export_state())
        restored.ensure_fresh()  # the compilation reports the same version
        delta_log = restored.pop_learning_log()
        assert delta_log.graph_version == random_gnp.version


# ----------------------------------------------------------------------
# Learning log
# ----------------------------------------------------------------------
class TestLearningLog:
    def test_captures_only_logged_window(self, random_gnp):
        index = _build_index(random_gnp)
        index.record_rank("before", "x", 2)
        index.start_learning_log()
        index.record_rank("during", "y", 3)
        index.record_exploration("during", 5)
        delta = index.pop_learning_log()
        index.record_rank("after", "z", 4)
        assert dict(delta.ranks) == {("during", "y"): 3}
        assert delta.explorations == {"during": 5}
        assert bool(delta)

    def test_nested_log_folds_into_its_outer_log(self, random_gnp):
        """The outer log ends as if it alone had recorded every call."""
        index = _build_index(random_gnp)
        calls = [
            ("rank", "a", "x", 2), ("explore", "a", 3),
            ("rank", "b", "y", 4), ("rank", "a", "x", 2),
            ("explore", "a", 5), ("explore", "c", 1),
            ("rank", "c", "z", 1), ("explore", "b", 2),
        ]

        def record(call):
            if call[0] == "rank":
                index.record_rank(*call[1:])
            else:
                index.record_exploration(*call[1:])

        index.start_learning_log()
        for call in calls:
            record(call)
        direct = index.pop_learning_log()

        index.start_learning_log()
        record(calls[0])
        record(calls[1])
        index.start_learning_log()
        for call in calls[2:6]:
            record(call)
        inner = index.pop_learning_log()
        for call in calls[6:]:
            record(call)
        outer = index.pop_learning_log()

        assert list(inner.ranks.items()) == [(("b", "y"), 4), (("a", "x"), 2)]
        assert inner.explorations == {"a": 5, "c": 1}
        assert list(outer.ranks.items()) == list(direct.ranks.items())
        assert list(outer.explorations.items()) == list(
            direct.explorations.items()
        )
        assert outer.explorations == {"a": 8, "c": 1, "b": 2}
        # Both logs are closed: later learning is captured by neither.
        index.record_rank("after", "w", 1)
        assert ("after", "w") not in outer.ranks
        assert not index.pop_learning_log()

    def test_pop_without_start_returns_mergeable_empty_delta(self, random_gnp):
        index = _build_index(random_gnp)
        delta = index.pop_learning_log()
        assert not delta and len(delta) == 0
        assert index.merge_delta(delta) == 0  # empty delta is a no-op


# ----------------------------------------------------------------------
# Merge semantics
# ----------------------------------------------------------------------
class TestMergeDelta:
    def test_empty_delta_is_a_no_op(self, random_gnp):
        index = _build_index(random_gnp)
        before = index.num_known_ranks
        assert index.merge_delta(HubIndexDelta(graph_version=random_gnp.version)) == 0
        assert index.num_known_ranks == before

    def test_merge_applies_through_all_dictionaries(self, random_gnp):
        index = _build_index(random_gnp)
        delta = HubIndexDelta(graph_version=random_gnp.version)
        delta.ranks[("s", "t")] = 2
        delta.ranks[("s", "u")] = 99
        delta.explorations["s"] = 4
        assert index.merge_delta(delta) == 2
        assert index.known_rank("s", "t") == 2
        # Reverse Rank Dictionary only takes ranks <= capacity.
        assert ("s", 2) in index.known_reverse_ranks("t")
        assert index.known_reverse_ranks("u") == []
        # Check Dictionary tracks the max recorded rank.
        assert index.check_value("s") == 99
        assert index.explored_count("s") == 4

    def test_last_writer_wins_on_identical_keys(self, random_gnp):
        index = _build_index(random_gnp)
        first = HubIndexDelta(graph_version=random_gnp.version)
        first.ranks[("s", "t")] = 3
        second = HubIndexDelta(graph_version=random_gnp.version)
        second.ranks[("s", "t")] = 5
        index.merge_delta(first)
        index.merge_delta(second)
        assert index.known_rank("s", "t") == 5

    def test_stale_version_delta_is_rejected(self, random_gnp):
        index = _build_index(random_gnp)
        stale = HubIndexDelta(graph_version=(random_gnp.version or 0) + 17)
        stale.ranks[("s", "t")] = 1
        with pytest.raises(IndexParameterError):
            index.merge_delta(stale)

    def test_merge_into_stale_index_is_rejected(self, random_gnp):
        graph = random_gnp.copy()
        index = _build_index(graph)
        delta = HubIndexDelta(graph_version=graph.version)
        delta.ranks[("s", "t")] = 1
        graph.add_edge(0, 9, 0.25)
        with pytest.raises(IndexParameterError):
            index.merge_delta(delta)

    def test_non_delta_payloads_are_rejected(self, random_gnp):
        index = _build_index(random_gnp)
        with pytest.raises(IndexParameterError):
            index.merge_delta({"ranks": {}})


# ----------------------------------------------------------------------
# Parity: merged-after-parallel vs sequentially-warmed (in-process twin of
# the pool test in test_parallel.py — no worker processes involved)
# ----------------------------------------------------------------------
class TestMergedIndexParity:
    def test_sharded_learning_merged_back_equals_sequential_warming(
        self, random_gnp
    ):
        queries = sorted(random_gnp.nodes(), key=repr)[:8]
        probes = sorted(random_gnp.nodes(), key=repr)[8:14]
        k = 4

        # Sequentially warmed reference.
        engine_seq = ReverseKRanksEngine(random_gnp)
        engine_seq.build_index(num_hubs=3, capacity=8)
        engine_seq.query_many(queries, k, algorithm=AlgorithmKind.INDEXED)

        # Simulated two-shard parallel run: worker indexes restored from a
        # snapshot, learning logged per shard, deltas merged into master.
        engine_par = ReverseKRanksEngine(random_gnp)
        master = engine_par.build_index(num_hubs=3, capacity=8)
        state = master.export_state()
        csr = engine_par.compact_graph()
        deltas = []
        for shard in (queries[0::2], queries[1::2]):
            worker_engine = ReverseKRanksEngine(
                csr, index=HubIndex.from_state(csr, state)
            )
            worker_engine.index.start_learning_log()
            worker_engine.query_many(shard, k, algorithm=AlgorithmKind.INDEXED)
            deltas.append(worker_engine.index.pop_learning_log())
        merged_entries = sum(master.merge_delta(delta) for delta in deltas)
        assert merged_entries > 0

        for probe in probes:
            warmed = engine_seq.query(probe, k, algorithm=AlgorithmKind.INDEXED)
            merged = engine_par.query(probe, k, algorithm=AlgorithmKind.INDEXED)
            assert results_equivalent(warmed, merged)
            assert warmed.rank_values() == merged.rank_values()
