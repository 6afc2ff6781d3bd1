"""The disturbance bound that lets ``HubIndex.repair`` reuse a hub's row.

A hub whose settled set holds a touched endpoint is kept, not
re-explored, when its pre-batch distances put the first distance the
batch's net edge changes can disturb beyond its row, and otherwise
resumes its exploration after the entries closer than that bound (see
the ``repair`` docstring).  Each case below pins one term or fallback:
it asserts which hubs the repair re-explored and kept, or how many row
entries it reused (``last_repair_settles``), and that the repaired
index, stored distances included, equals a same-hub, same-budget
rebuild.  Deleting the clause named in a case's docstring flips its
outcome.  The kernel cases at the end pin ``explore_row``'s resume.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.core import ReverseKRanksEngine
from repro.core.hub_index import HubIndex
from repro.graph import CompactGraph, Graph
from repro.traversal.csr_ops import compact_rank_stream, explore_row

from conftest import (
    distance_test_keeps,
    edge_changes,
    index_signature,
    road_lattice,
    road_traffic,
)

REEXPLORED = ((0,), ())
KEPT = ((), (0,))


def _graph(edges, directed=False, nodes=()):
    graph = Graph(directed=directed)
    graph.add_nodes(nodes)
    for source, target, weight in edges:
        graph.add_edge(source, target, weight)
    return graph


def _indexed(graph, explore_limit=None, hubs=(0,)):
    engine = ReverseKRanksEngine(graph)
    engine.adopt_index(
        HubIndex.build(
            graph, capacity=4, hubs=list(hubs), explore_limit=explore_limit,
            backend=engine.compact_graph(),
        )
    )
    return engine


def _rebuilt(engine, explore_limit=None):
    """A same-hub, same-budget index built from scratch."""
    return HubIndex.build(
        engine.graph, capacity=engine.index.capacity, hubs=engine.index.hubs,
        explore_limit=explore_limit,
        backend=CompactGraph.from_graph(engine.graph),
    )


def _repair(engine, ops, explore_limit=None):
    """Apply ``ops``; the index must equal a rebuild.  Returns the outcome."""
    engine.apply_updates(ops)
    rebuilt = _rebuilt(engine, explore_limit)
    assert index_signature(engine.index) == index_signature(rebuilt)
    assert engine.index._dists == rebuilt._dists
    return engine.index.last_repair


def _diamond():
    """Hub 0 settles 1 (1.0), 3 (1.5), 2 (2.0) and 4 (2.5)."""
    return _indexed(
        _graph(
            [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.5), (3, 2, 1.6), (0, 4, 2.5)]
        )
    )


#: A path 0-2-3-4-5-1 under a budget of 3: the row is 2, 3, 4 and the
#: radius 3.0; node 1 (index below 4's) lies beyond it at 5.0.
_PATH = [(0, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (5, 1, 1.0)]


def _truncated_path():
    return _indexed(_graph(_PATH, nodes=range(6)), explore_limit=3)


@pytest.mark.parametrize(
    "ops",
    [
        [("remove_edge", 1, 2)],
        [("remove_edge", 1, 2), ("add_edge", 1, 2, 1.9)],  # raised
    ],
    ids=["removed", "raised"],
)
def test_tight_removal_reexplores(ops):
    """Kills the tight-removal clause: 2 falls behind 4."""
    assert _repair(_diamond(), ops) == REEXPLORED


@pytest.mark.parametrize(
    "ops",
    [[("add_edge", 1, 4, 0.3)], [("add_edge", 1, 2, 0.3)]],
    ids=["inserted", "lowered"],
)
def test_improving_insert_reexplores(ops):
    """Kills the improving-insert clause: the settled far end moves up."""
    assert _repair(_diamond(), ops) == REEXPLORED


@pytest.mark.parametrize(
    "ops",
    [[("remove_edge", 3, 2)], [("add_edge", 1, 4, 1.5)]],
    ids=["slack-removal", "tight-insert"],
)
def test_harmless_changes_keep_the_hub(ops):
    """A removal off every shortest path, and an insert exactly as long
    as the path it doubles, leave the row as it is."""
    assert _repair(_diamond(), ops) == KEPT


def test_insert_landing_exactly_at_the_radius_reexplores():
    """Kills the radius clause (or ``<`` for ``<=``): node 1 ties the
    last settled node at 3.0 with a lower index and enters the row."""
    engine = _truncated_path()
    assert _repair(engine, [("add_edge", 3, 1, 1.0)], 3) == REEXPLORED
    assert 1 in engine.index.export_state()["known"][0]


def test_insert_just_past_the_radius_keeps_the_hub():
    """Node 1 moves from 5.0 to 3.25, still behind the boundary."""
    assert _repair(_truncated_path(), [("add_edge", 3, 1, 1.25)], 3) == KEPT


def test_hub_as_endpoint_reexplores():
    """Kills ``d(hub) = 0``: the hub has no entry in its own row, so
    without it the hub's improving edge would go unread."""
    assert _repair(_truncated_path(), [("add_edge", 0, 4, 1.5)], 3) == (
        REEXPLORED
    )


def test_row_shorter_than_budget_has_infinite_radius():
    """Kills the +inf radius: the hub settled all it reaches (2.0 is
    its last distance), so a far insert joining another component
    grows the row however long it is."""
    engine = _indexed(_graph([(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]))
    assert _repair(engine, [("add_edge", 2, 3, 5.0)]) == REEXPLORED
    assert set(engine.index.export_state()["known"][0]) == {1, 2, 3, 4}


def test_untouched_zero_weight_edge_falls_back():
    """Kills the no-zero-weight condition.  Nodes 1 and 2 sit at 2.0
    behind zero-weight edges from 4, so they settle after 3 and 4
    despite their lower indexes, and the budget of 4 cuts 2.  The
    insert is exactly as long as the path it doubles, yet it lets 1 and
    then 2 settle first: 2 enters the row and 4 leaves it."""
    graph = _graph(
        [(0, 5, 1.0), (0, 3, 2.0), (0, 4, 2.0), (4, 1, 0.0), (1, 2, 0.0)],
        nodes=range(6),
    )
    engine = _indexed(graph, explore_limit=4)
    assert list(engine.index.export_state()["known"][0]) == [5, 3, 4, 1]
    assert _repair(engine, [("add_edge", 5, 1, 1.0)], 4) == REEXPLORED
    assert list(engine.index.export_state()["known"][0]) == [5, 1, 2, 3]


@pytest.mark.parametrize(
    "ops",
    [[("remove_edge", 2, 1)], [("add_edge", 2, 1, 0.5)]],
    ids=["tight-in-reverse", "improving-in-reverse"],
)
def test_directed_edge_is_read_one_way(ops):
    """Removing 2 -> 1 or lowering it would matter as 1 -> 2; a directed
    edge is read only in its own direction, so the hub is kept."""
    graph = _graph(
        [(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (0, 3, 1.5)], directed=True
    )
    assert _repair(_indexed(graph), ops) == KEPT


def test_outgrown_learned_row_falls_back():
    """Kills the outgrown-row fallback: the stored distances end at 3.0,
    but the row also holds Rank(0, 5) = 4 (recorded here as an indexed
    refinement would), and the insert puts node 1 (3.25) ahead of 5
    (4.0).  Only re-exploring drops that stale entry."""
    engine = _truncated_path()
    engine.index.record_rank(0, 5, 4)
    assert _repair(engine, [("add_edge", 3, 1, 1.25)], 3) == REEXPLORED
    assert 5 not in engine.index.export_state()["known"][0]


# ----------------------------------------------------------------------
# What a re-explored hub reuses, read through the settle counter
# ----------------------------------------------------------------------
#: A ring of 12 unit edges under a budget of 6: hub 0 settles 1 and 11
#: at 1.0, 2 and 10 at 2.0, then 3 and 9 at 3.0, the radius.
_RING = [(node, (node + 1) % 12, 1.0) for node in range(12)]


def _ring(extra=(), nodes=range(12)):
    return _indexed(_graph(_RING + list(extra), nodes=nodes), explore_limit=6)


def _settles(engine, ops):
    """Apply ``ops`` (the index must equal a rebuild); ``(reused, explored)``."""
    _repair(engine, ops, 6)
    return engine.index.last_repair_settles


def test_tight_removal_deep_in_the_row_reuses_the_entries_before_its_head():
    """Kills the tight-removal term (the hub would be kept) or reads it
    at the edge's tail: cutting 2-3 moves 3 (3.0), so the four entries
    before it stay and 9 and 8 are settled anew."""
    engine = _ring()
    assert _settles(engine, [("remove_edge", 2, 3)]) == (4, 2)
    assert engine.index.last_repair == REEXPLORED


@pytest.mark.parametrize(
    "ops",
    [[("add_edge", 1, 3, 0.5)], [("add_edge", 11, 6, 0.7)]],
    ids=["improving", "reaching-past-the-row"],
)
def test_insert_reuses_the_entries_closer_than_its_landing(ops):
    """Kills the insert term, or reads it at the head (3.0 or beyond):
    the insert lands at 1.5 or 1.7, so only 1 and 11 stay."""
    assert _settles(_ring(), ops) == (2, 4)


def test_insert_from_the_hub_reuses_nothing():
    """Kills ``d(hub) = 0``: the hub is no entry of its own row, so
    without it the insert would go unread and the hub be kept."""
    assert _settles(_ring(), [("add_edge", 0, 5, 0.5)]) == (0, 6)


@pytest.mark.parametrize(
    "ops",
    [[("add_edge", 0, 2, 2.0)], [("add_edge", 0, 4, 3.5)]],
    ids=["as-long-as-its-path", "past-the-radius"],
)
def test_harmless_change_at_the_hub_keeps_the_hub(ops):
    """An endpoint clause instead of ``d(hub) = 0`` would re-explore."""
    engine = _ring()
    assert _repair(engine, ops, 6) == KEPT
    assert engine.index.last_repair_settles == (0, 0)


def _zero_weight_elsewhere():
    engine = _ring(extra=[(12, 13, 0.0)], nodes=range(14))
    return engine, [("remove_edge", 2, 3)]


def _node_removal():
    return _ring(), [("remove_edge", 2, 3), ("remove_node", 6)]


def _no_stored_distances():
    engine = _ring()
    engine.adopt_index(
        HubIndex.from_state(engine.graph, engine.index.export_state())
    )
    return engine, [("remove_edge", 2, 3)]


def _outgrown_row():
    engine = _ring()
    engine.index.record_rank(0, 8, 7)  # as an indexed refinement would
    return engine, [("remove_edge", 2, 3)]


@pytest.mark.parametrize(
    "setup",
    [_zero_weight_elsewhere, _node_removal, _no_stored_distances, _outgrown_row],
    ids=["zero-weight", "node-removal", "no-distances", "outgrown-row"],
)
def test_each_fallback_reuses_nothing(setup):
    """The tight removal above reuses four entries; under each fallback
    the hub is explored from scratch instead."""
    engine, ops = setup()
    assert _settles(engine, ops) == (0, 6)


def test_conservative_repair_reuses_nothing():
    engine = _ring()
    engine.graph.remove_edge(2, 3)
    engine.index.repair(
        [2, 3], conservative=True, changes=[(2, 3, 1.0, None)]
    )
    assert engine.index.last_repair_settles == (0, 6)
    rebuilt = _rebuilt(engine, 6)
    assert index_signature(engine.index) == index_signature(rebuilt)
    assert engine.index._dists == rebuilt._dists


# ----------------------------------------------------------------------
# The resume kernel
# ----------------------------------------------------------------------
def _row(csr, hub, limit):
    """The reference row: the generator stream hub explorations used."""
    row, dists = {}, array("d")
    for node, distance, rank in compact_rank_stream(csr, hub):
        row[node] = int(rank)
        dists.append(distance)
        if len(row) >= limit:
            break
    return row, dists


def _resumed(csr, source, limit, prefix):
    """The prefix plus the tail ``explore_row`` settles after it."""
    row, dists = prefix
    tail, tail_dists = explore_row(csr, source, limit, prefix)
    return {**row, **tail}, dists + tail_dists


def test_resume_seeds_the_earliest_entry_within_the_weight_bound():
    """Kills ``>=`` (as ``>``) in the seed test.  The prefix ends inside
    the tie group at 3.0; node 4 ties it, and its only settled
    neighbour is 1, whose 1.0 plus the heaviest weight (2.0) is exactly
    the prefix's last distance."""
    graph = _graph(
        [(0, 1, 1.0), (1, 4, 2.0), (0, 2, 1.5), (2, 3, 1.5)], nodes=range(5)
    )
    csr = CompactGraph.from_graph(graph)
    row, dists = explore_row(csr, csr.index_of(0), 5)
    assert list(row.items()) == [(1, 1), (2, 2), (3, 3), (4, 3)]
    prefix = (dict(list(row.items())[:3]), dists[:3])
    assert explore_row(csr, csr.index_of(0), 5, prefix) == (
        {4: 3}, array("d", [3.0])
    )
    assert _resumed(csr, csr.index_of(0), 5, prefix) == (row, dists)


@pytest.mark.parametrize("seed", range(8))
def test_resume_after_any_prefix_equals_a_full_exploration(seed):
    """An empty prefix is a full exploration, which equals the reference
    stream; each longer prefix of that row plus the tail resumed after
    it gives it too, ties and truncated rows included, and the prefix
    is left as it was."""
    rng = random.Random(seed)
    edges = [
        (u, v, rng.choice([1.0, 2.0]) if seed % 2 else rng.uniform(0.5, 3.0))
        for u in range(24)
        for v in range(u + 1, 24)
        if rng.random() < 0.15
    ]
    csr = CompactGraph.from_graph(_graph(edges, nodes=range(24)))
    for hub, limit in ((0, 24), (5, 9), (11, 4)):
        row, dists = _row(csr, hub, limit)
        entries = list(row.items())
        source = csr.index_of(hub)
        assert explore_row(csr, source, limit) == (row, dists)
        for cut in range(len(entries) + 1):
            prefix = (dict(entries[:cut]), dists[:cut])
            resumed = _resumed(csr, source, limit, prefix)
            assert list(resumed[0].items()) == entries, cut
            assert resumed[1] == dists, cut
            assert prefix == (dict(entries[:cut]), dists[:cut]), cut


# ----------------------------------------------------------------------
# The gain on road-like updates, and what it keeps
# ----------------------------------------------------------------------
def test_road_updates_keep_hubs_whose_rows_are_unchanged():
    rng = random.Random(5)
    graph = road_lattice(12, rng)
    shadow = graph.copy()
    engine = ReverseKRanksEngine(graph)
    engine.build_index(num_hubs=6, explore_limit=48, capacity=8)
    closed = {}
    kept_hubs = reused = explored = 0
    for _ in range(12):
        known = engine.index.export_state()["known"]
        # Copies: a repair trims and extends the stored arrays in place.
        stored = {
            hub: dists[:] for hub, dists in engine.index._dists.items()
        }
        before = shadow.copy()
        engine.apply_updates(road_traffic(rng, shadow, closed))
        edges = edge_changes(before, shadow)
        rebuilt = HubIndex.build(
            shadow, capacity=8, hubs=engine.index.hubs, explore_limit=48,
            backend=CompactGraph.from_graph(shadow),
        )
        assert index_signature(engine.index) == index_signature(rebuilt)
        assert engine.index._dists == rebuilt._dists
        mine = engine.index.export_state()["known"]
        fresh = rebuilt.export_state()["known"]
        reexplored, kept = engine.index.last_repair
        for hub in kept:
            assert list(mine[hub].items()) == list(fresh[hub].items()), hub
        for hub in reexplored:
            assert not distance_test_keeps(
                hub, known[hub], stored[hub], edges, 48
            ), hub
        kept_hubs += len(kept)
        reused += engine.index.last_repair_settles[0]
        explored += engine.index.last_repair_settles[1]
    family = engine.registry.get("repro_index_repair_hubs_total")
    assert family.labels(outcome="kept").value == kept_hubs > 0
    assert family.labels(outcome="reexplored").value > 0
    settled = engine.registry.get("repro_index_repair_settled_total")
    assert settled.labels(outcome="reused").value == reused > 0
    assert settled.labels(outcome="explored").value == explored > 0


def test_resumed_rows_are_trimmed_in_place():
    """A resumed hub keeps its prefix where it is: after the repair its
    row and its distances are the same objects, the prefix entries
    unmoved, and the repair delta records the trim and only the tail."""
    rng = random.Random(5)
    graph = road_lattice(12, rng)
    shadow = graph.copy()
    engine = ReverseKRanksEngine(graph)
    engine.build_index(num_hubs=6, explore_limit=48, capacity=8)
    closed = {}
    trimmed = 0
    for _ in range(12):
        index = engine.index
        rows = dict(index._known)
        dists = dict(index._dists)
        before = {hub: list(row.items()) for hub, row in rows.items()}
        delta = engine.apply_updates(road_traffic(rng, shadow, closed)).index_delta
        for hub, cut in delta.trimmed.items():
            assert index._known[hub] is rows[hub]
            assert index._dists[hub] is dists[hub]
            assert list(rows[hub].items())[:cut] == before[hub][:cut]
            tail = [target for source, target in delta.ranks if source == hub]
            assert tail == list(rows[hub])[cut:]
            assert delta.explorations[hub] == len(tail)
            assert hub not in delta.removed_sources
            trimmed += 1
        assert sum(delta.trimmed.values()) == index.last_repair_settles[0]
    assert trimmed > 0
