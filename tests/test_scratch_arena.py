"""The epoch-stamped scratch arena: reset semantics, reuse parity, growth.

The arena's contract is behavioural invisibility: any number of queries
drawing scratch from one arena must produce results — ranks, entry
identity and order, and every QueryStats counter — bit-identical to
fresh-allocation runs.  These tests pin that down at two levels: the
EpochStamps primitive and end-to-end query sweeps (including the
>256-epoch wraparound, which a hundred multi-refinement queries cross
many times over).
"""

from __future__ import annotations

import pytest

from repro.core import AlgorithmKind, ReverseKRanksEngine
from repro.core.config import BoundSet
from repro.core.sds_dynamic import dynamic_reverse_k_ranks
from repro.core.sds_static import static_reverse_k_ranks
from repro.graph import CompactGraph
from repro.traversal import EpochStamps, ScratchArena


def _stats_signature(result):
    """QueryStats as a comparable dict, ignoring wall-clock noise."""
    signature = result.stats.as_dict()
    signature.pop("elapsed_seconds")
    return signature


# ----------------------------------------------------------------------
# EpochStamps
# ----------------------------------------------------------------------
class TestEpochStamps:
    def test_stale_entries_from_epoch_e_invisible_at_e_plus_1(self):
        stamps = EpochStamps(8)
        epoch = stamps.advance()
        stamps.stamps[3] = epoch
        stamps.stamps[5] = epoch
        assert stamps.is_current(3) and stamps.is_current(5)
        stamps.advance()
        assert not stamps.is_current(3)
        assert not stamps.is_current(5)
        assert not any(stamps.is_current(key) for key in range(8))

    def test_wraparound_zeroes_without_resurrecting_entries(self):
        stamps = EpochStamps(4)
        first = stamps.advance()
        stamps.stamps[0] = first
        # Drive the one-byte epoch past its wrap point several times.
        for _ in range(700):
            epoch = stamps.advance()
            # Whatever the epoch value, entries stamped in *earlier*
            # epochs must never read as current.
            assert not stamps.is_current(0)
            stamps.stamps[0] = epoch
            assert stamps.is_current(0)
        assert 1 <= stamps.epoch <= 255

    def test_grow_keeps_new_keys_absent(self):
        stamps = EpochStamps(2)
        epoch = stamps.advance()
        stamps.stamps[1] = epoch
        stamps.grow(6)
        assert stamps.capacity == 6
        assert stamps.is_current(1)
        assert not any(stamps.is_current(key) for key in range(2, 6))

    def test_advance_zeroes_in_place(self):
        stamps = EpochStamps(3)
        table = stamps.stamps
        for _ in range(600):
            stamps.advance()
        assert stamps.stamps is table  # hot-loop local refs stay valid


# ----------------------------------------------------------------------
# Arena reuse: identical results and stats across >= 100 queries
# ----------------------------------------------------------------------
class TestArenaReuseParity:
    def test_reuse_across_100_queries_matches_fresh_allocation(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        arena = ScratchArena()
        nodes = sorted(random_gnp.nodes(), key=repr)
        served = 0
        for round_index in range(5):  # 5 x 22 nodes = 110 queries
            k = 3 + round_index
            for query in nodes:
                shared = dynamic_reverse_k_ranks(
                    random_gnp, query, k, backend=csr, arena=arena
                )
                fresh = dynamic_reverse_k_ranks(
                    random_gnp, query, k, backend=csr
                )
                assert shared.as_pairs() == fresh.as_pairs()
                assert [e.node for e in shared.entries] == [
                    e.node for e in fresh.entries
                ]
                assert _stats_signature(shared) == _stats_signature(fresh)
                served += 1
        assert served >= 100
        assert arena.queries_served >= 100

    def test_static_and_bound_ablation_reuse_parity(self, tie_heavy_graph):
        csr = CompactGraph.from_graph(tie_heavy_graph)
        arena = ScratchArena()
        queries = sorted(tie_heavy_graph.nodes(), key=repr)
        bound_sets = [
            BoundSet.none(),
            BoundSet(use_parent=True, use_height=False, use_count=False),
            BoundSet(use_parent=False, use_height=True, use_count=False),
            BoundSet(use_parent=False, use_height=False, use_count=True),
            BoundSet.all(),
        ]
        for bounds in bound_sets:
            for query in queries:
                shared = dynamic_reverse_k_ranks(
                    tie_heavy_graph, query, 4, bounds=bounds,
                    backend=csr, arena=arena,
                )
                fresh = dynamic_reverse_k_ranks(
                    tie_heavy_graph, query, 4, bounds=bounds, backend=csr
                )
                assert shared.as_pairs() == fresh.as_pairs()
                assert _stats_signature(shared) == _stats_signature(fresh)

    def test_generic_dict_path_reuse_parity(self, weighted_grid):
        # Handed the dict graph: every call compiles it on entry, and the
        # one arena serves compilations it has never seen before.
        arena = ScratchArena()
        for query in sorted(weighted_grid.nodes(), key=repr):
            shared = static_reverse_k_ranks(
                weighted_grid, query, 3, arena=arena
            )
            fresh = static_reverse_k_ranks(weighted_grid, query, 3)
            assert shared.as_pairs() == fresh.as_pairs()
            assert _stats_signature(shared) == _stats_signature(fresh)

    def test_engine_owns_and_reuses_one_arena(self, random_gnp):
        engine = ReverseKRanksEngine(random_gnp)
        queries = sorted(random_gnp.nodes(), key=repr)
        assert engine.arena.queries_served == 0
        first = engine.query_many(queries, 4, algorithm="dynamic")
        served_after_first = engine.arena.queries_served
        assert served_after_first >= len(queries)
        second = engine.query_many(queries, 4, algorithm="dynamic")
        assert engine.arena.queries_served > served_after_first
        assert [r.as_pairs() for r in first] == [r.as_pairs() for r in second]
        assert [_stats_signature(r) for r in first] == [
            _stats_signature(r) for r in second
        ]

    def test_indexed_queries_share_the_arena(self, random_gnp):
        engine = ReverseKRanksEngine(random_gnp)
        engine.build_index(num_hubs=3, capacity=8)
        before = engine.arena.queries_served
        engine.query_many(
            sorted(random_gnp.nodes(), key=repr)[:6], 4,
            algorithm=AlgorithmKind.INDEXED,
        )
        assert engine.arena.queries_served > before


# ----------------------------------------------------------------------
# Growth when a larger graph arrives
# ----------------------------------------------------------------------
class TestArenaGrowth:
    def test_arena_grows_and_stays_exact_across_graph_sizes(
        self, path_graph, random_gnp
    ):
        arena = ScratchArena()
        small_csr = CompactGraph.from_graph(path_graph)
        for query in path_graph.nodes():
            shared = dynamic_reverse_k_ranks(
                path_graph, query, 3, backend=small_csr, arena=arena
            )
            fresh = dynamic_reverse_k_ranks(path_graph, query, 3, backend=small_csr)
            assert shared.as_pairs() == fresh.as_pairs()
        small_capacity = arena.capacity
        assert small_capacity == path_graph.num_nodes

        larger_csr = CompactGraph.from_graph(random_gnp)
        for query in sorted(random_gnp.nodes(), key=repr):
            shared = dynamic_reverse_k_ranks(
                random_gnp, query, 4, backend=larger_csr, arena=arena
            )
            fresh = dynamic_reverse_k_ranks(random_gnp, query, 4, backend=larger_csr)
            assert shared.as_pairs() == fresh.as_pairs()
            assert _stats_signature(shared) == _stats_signature(fresh)
        assert arena.capacity == random_gnp.num_nodes > small_capacity

        # And shrinking back to the small graph neither shrinks the arena
        # nor resurrects stale large-graph state.
        for query in path_graph.nodes():
            shared = dynamic_reverse_k_ranks(
                path_graph, query, 3, backend=small_csr, arena=arena
            )
            fresh = dynamic_reverse_k_ranks(path_graph, query, 3, backend=small_csr)
            assert shared.as_pairs() == fresh.as_pairs()
        assert arena.capacity == random_gnp.num_nodes

    def test_ensure_capacity_is_monotonic(self):
        arena = ScratchArena(4)
        assert arena.capacity == 4
        arena.ensure_capacity(2)
        assert arena.capacity == 4
        arena.ensure_capacity(9)
        assert arena.capacity == 9
        assert len(arena.parent_bound) == 9
        assert len(arena.height_bound) == 9
        assert len(arena.lcount) == 9
        for table in (
            arena.tree_best,
            arena.tree_first,
            arena.refine_best,
            arena.refine_first,
        ):
            assert len(table) == 9
        assert arena.tree_pushed.capacity == 9
        assert arena.refine_pushed.capacity == 9
        assert arena.tree_settled.capacity == 9
