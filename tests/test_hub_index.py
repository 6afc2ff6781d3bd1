"""Unit tests for hub selection and the hub index dictionaries."""

from __future__ import annotations

import random

import pytest

from repro.core import hub_index as hub_index_module
from repro.core.hub_index import HubIndex
from repro.core.hubs import HubSelectionStrategy, select_hubs
from repro.errors import (
    IndexCapacityError,
    IndexParameterError,
    NodeNotFoundError,
)
from repro.traversal.rank import exact_rank, rank_row


def test_select_hubs_degree_picks_highest_degree(random_gnp):
    hubs = select_hubs(random_gnp, 3, HubSelectionStrategy.DEGREE)
    assert len(hubs) == 3
    cutoff = min(random_gnp.out_degree(hub) for hub in hubs)
    outside = [n for n in random_gnp.nodes() if n not in hubs]
    assert all(random_gnp.out_degree(node) <= cutoff for node in outside)


def test_select_hubs_strategies_are_deterministic(random_gnp):
    for strategy in ("degree", "closeness", "random"):
        first = select_hubs(random_gnp, 4, strategy, rng=random.Random(5))
        second = select_hubs(random_gnp, 4, strategy, rng=random.Random(5))
        assert first == second


def test_select_hubs_clamps_and_validates(random_gnp):
    assert len(select_hubs(random_gnp, 10_000)) == random_gnp.num_nodes
    with pytest.raises(IndexParameterError):
        select_hubs(random_gnp, 0)


def test_build_rejects_bad_parameters(random_gnp, monkeypatch):
    with pytest.raises(IndexParameterError):
        HubIndex(random_gnp, capacity=0)
    for explore_limit in (None, "auto"):
        HubIndex.build(random_gnp, num_hubs=2, explore_limit=explore_limit)
    # A bad budget is refused before any hub is selected.
    monkeypatch.setattr(hub_index_module, "select_hubs", None)
    for explore_limit in (0, 2.5, True, "x"):
        with pytest.raises(IndexParameterError):
            HubIndex.build(random_gnp, num_hubs=2, explore_limit=explore_limit)
    with pytest.raises(NodeNotFoundError):
        HubIndex(random_gnp, capacity=4, hubs=["not-a-node"])


def test_known_ranks_are_exact(random_gnp):
    index = HubIndex.build(random_gnp, num_hubs=3, capacity=50)
    assert index.num_known_ranks > 0
    for hub in index.hubs:
        row = rank_row(random_gnp, hub)
        for target, rank in row.items():
            assert index.known_rank(hub, target) == rank


def test_known_reverse_ranks_sorted_and_consistent(random_gnp):
    index = HubIndex.build(random_gnp, num_hubs=4, capacity=50)
    target = next(iter(random_gnp.nodes()))
    entries = index.known_reverse_ranks(target)
    ranks = [rank for _, rank in entries]
    assert ranks == sorted(ranks)
    for source, rank in entries:
        assert rank == exact_rank(random_gnp, source, target)


def test_capacity_limits_reverse_dictionary(random_gnp):
    small = HubIndex.build(random_gnp, num_hubs=3, capacity=2)
    big = HubIndex.build(random_gnp, num_hubs=3, capacity=50)
    target = next(iter(random_gnp.nodes()))
    assert all(rank <= 2 for _, rank in small.known_reverse_ranks(target))
    assert len(small.known_reverse_ranks(target)) <= len(big.known_reverse_ranks(target))


def test_check_value_is_valid_lower_bound(random_gnp):
    # The Check Dictionary bound must never exceed the true rank of any
    # node whose rank w.r.t. the source is *not* stored.
    index = HubIndex.build(random_gnp, num_hubs=3, capacity=50, explore_limit=6)
    for hub in index.hubs:
        bound = index.check_value(hub)
        assert bound is not None
        row = rank_row(random_gnp, hub)
        for target, rank in row.items():
            if index.known_rank(hub, target) is None:
                assert rank >= bound


def test_truncated_exploration_respects_limit(random_gnp):
    index = HubIndex.build(random_gnp, num_hubs=2, capacity=50, explore_limit=5)
    for hub in index.hubs:
        assert index.explored_count(hub) <= 5


def test_ensure_compatible_guards(random_gnp, weighted_grid):
    index = HubIndex.build(random_gnp, num_hubs=2, capacity=4)
    index.ensure_compatible(random_gnp, 4)
    with pytest.raises(IndexCapacityError):
        index.ensure_compatible(random_gnp, 5)
    with pytest.raises(IndexParameterError):
        index.ensure_compatible(weighted_grid, 2)


def test_record_rank_updates_all_dictionaries(random_gnp):
    index = HubIndex(random_gnp, capacity=5)
    index.record_rank("s", "t", 3)
    index.record_rank("s", "u", 7)  # beyond capacity: check dict only
    assert index.known_rank("s", "t") == 3
    assert index.known_rank("s", "u") == 7
    assert index.known_reverse_ranks("t") == [("s", 3)]
    assert index.known_reverse_ranks("u") == []
    assert index.check_value("s") == 7
    index.record_exploration("s", 2)
    index.record_exploration("s", 3)
    assert index.explored_count("s") == 5
