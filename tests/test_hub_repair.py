"""The distance test that lets ``HubIndex.repair`` keep a hub's row.

A hub whose settled set holds a touched endpoint is still kept, not
re-explored, when its pre-batch distances prove the batch's net edge
changes cannot move its row (see the ``repair`` docstring).  Each case
below pins one clause of that test: it asserts which hubs the repair
re-explored and kept, and that the repaired index equals a same-hub,
same-budget rebuild.  Deleting the clause named in a case's docstring
flips its outcome.
"""

from __future__ import annotations

import random

import pytest

from repro.core import ReverseKRanksEngine
from repro.core.hub_index import HubIndex
from repro.graph import CompactGraph, Graph

from conftest import index_signature, road_lattice, road_traffic

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
    """Kills the endpoint clause: the hub has no entry in its own row,
    so without the clause its improving edge would go unread."""
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
# The gain on road-like updates, and what it keeps
# ----------------------------------------------------------------------
def test_road_updates_keep_hubs_whose_rows_are_unchanged():
    rng = random.Random(5)
    graph = road_lattice(12, rng)
    shadow = graph.copy()
    engine = ReverseKRanksEngine(graph)
    engine.build_index(num_hubs=6, explore_limit=48, capacity=8)
    closed = {}
    kept_hubs = 0
    for _ in range(12):
        engine.apply_updates(road_traffic(rng, shadow, closed))
        rebuilt = HubIndex.build(
            shadow, capacity=8, hubs=engine.index.hubs, explore_limit=48,
            backend=CompactGraph.from_graph(shadow),
        )
        assert index_signature(engine.index) == index_signature(rebuilt)
        mine = engine.index.export_state()["known"]
        fresh = rebuilt.export_state()["known"]
        _, kept = engine.index.last_repair
        for hub in kept:
            assert list(mine[hub].items()) == list(fresh[hub].items()), hub
        kept_hubs += len(kept)
    family = engine.registry.get("repro_index_repair_hubs_total")
    assert family.labels(outcome="kept").value == kept_hubs > 0
    assert family.labels(outcome="reexplored").value > 0
