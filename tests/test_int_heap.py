"""Unit + property tests for the dense int-keyed addressable heap.

Beyond basic heap behaviour, the property sweep drives :class:`IntHeap`
and the plain reference :class:`AddressableHeap` (``addressable_heap.py``)
with the *same* randomized operation stream — deliberately tie-heavy
priorities — and requires identical pop sequences.  That equivalence
(insertion-order tie-breaking, counters preserved across
``decrease_key``) fixes the settle order of the SDS-tree, its refinements
and the top-k searches.
"""

from __future__ import annotations

import random

import pytest

from addressable_heap import AddressableHeap
from repro.traversal.int_heap import IntHeap


def test_pop_orders_by_priority():
    heap = IntHeap(8)
    for key, priority in [(0, 3.0), (1, 1.0), (2, 2.0), (3, 0.5)]:
        heap.push(key, priority)
    assert [heap.pop() for _ in range(len(heap))] == [
        (3, 0.5),
        (1, 1.0),
        (2, 2.0),
        (0, 3.0),
    ]


def test_ties_break_by_insertion_order():
    heap = IntHeap(4)
    heap.push(2, 1.0)
    heap.push(1, 1.0)
    assert heap.pop() == (2, 1.0)
    assert heap.pop() == (1, 1.0)


def test_decrease_key_preserves_insertion_counter():
    heap = IntHeap(4)
    heap.push(0, 5.0)
    heap.push(1, 2.0)
    # Key 0 decreased to tie key 1: it was inserted first, so it pops first.
    assert heap.decrease_key(0, 2.0) is True
    assert heap.pop() == (0, 2.0)
    assert heap.pop() == (1, 2.0)


def test_duplicate_push_rejected():
    heap = IntHeap(2)
    heap.push(0, 1.0)
    with pytest.raises(ValueError):
        heap.push(0, 2.0)


def test_pop_and_peek_empty_raise():
    heap = IntHeap(2)
    with pytest.raises(IndexError):
        heap.pop()
    with pytest.raises(IndexError):
        heap.peek()


def test_out_of_range_key_rejected():
    heap = IntHeap(2)
    with pytest.raises(IndexError):
        heap.push(2, 1.0)


def test_negative_keys_rejected_not_aliased():
    # A bare array index would alias key -1 to the last slot; every entry
    # point must reject negatives instead of corrupting the table.
    heap = IntHeap(4)
    heap.push(3, 1.0)
    with pytest.raises(IndexError):
        heap.push(-1, 2.0)
    with pytest.raises(IndexError):
        heap.push_or_decrease(-1, 0.5)
    with pytest.raises(IndexError):
        heap.decrease_key(-1, 0.5)
    with pytest.raises(IndexError):
        heap.get_priority(-1)
    assert heap.check_invariant()
    assert heap.pop() == (3, 1.0)


def test_decrease_key_refuses_non_decrease():
    heap = IntHeap(4)
    heap.push(0, 2.0)
    assert heap.decrease_key(0, 2.0) is False
    assert heap.decrease_key(0, 9.0) is False
    assert heap.get_priority(0) == 2.0
    with pytest.raises(KeyError):
        heap.decrease_key(1, 1.0)


def test_push_or_decrease_and_membership():
    heap = IntHeap(4)
    assert heap.push_or_decrease(0, 4.0) is True
    assert 0 in heap
    assert heap.push_or_decrease(0, 6.0) is False
    assert heap.push_or_decrease(0, 3.0) is True
    assert heap.get_priority(0) == 3.0
    assert heap.get_priority(1) is None
    assert 1 not in heap
    assert -1 not in heap and 99 not in heap


def test_clear_resets_only_touched_slots():
    heap = IntHeap(16)
    for key in (3, 7, 11):
        heap.push(key, float(key))
    heap.pop()
    heap.clear()
    assert len(heap) == 0 and not heap
    assert heap.check_invariant()
    heap.push(3, 1.0)
    assert heap.pop() == (3, 1.0)


def test_iter_lists_current_keys():
    heap = IntHeap(8)
    for key in (5, 1, 6):
        heap.push(key, float(key))
    assert sorted(heap) == [1, 5, 6]


def test_zero_capacity_heap_is_empty():
    heap = IntHeap(0)
    assert not heap and len(heap) == 0
    with pytest.raises(ValueError):
        IntHeap(-1)


# ----------------------------------------------------------------------
# Property sweep: lockstep with AddressableHeap on tie-heavy streams
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(20))
def test_randomized_lockstep_with_addressable_heap(seed):
    rng = random.Random(90_000 + seed)
    capacity = rng.choice([8, 24, 64])
    int_heap = IntHeap(capacity)
    ref_heap = AddressableHeap()
    live = set()
    for _ in range(400):
        action = rng.random()
        if action < 0.55:
            key = rng.randrange(capacity)
            # Coarse priorities force plenty of ties.
            priority = float(rng.randint(0, 6))
            if key in live:
                assert int_heap.decrease_key(key, priority) == (
                    ref_heap.decrease_key(key, priority)
                )
            else:
                int_heap.push(key, priority)
                ref_heap.push(key, priority)
                live.add(key)
        elif live:
            popped = int_heap.pop()
            assert popped == ref_heap.pop()
            live.discard(popped[0])
        assert int_heap.check_invariant()
        assert len(int_heap) == len(ref_heap)
    while ref_heap:
        assert int_heap.pop() == ref_heap.pop()
    assert not int_heap


@pytest.mark.parametrize("seed", range(10))
def test_randomized_push_or_decrease_matches_reference_dict(seed):
    rng = random.Random(31_000 + seed)
    heap = IntHeap(40)
    reference = {}
    for _ in range(500):
        if rng.random() < 0.6:
            key = rng.randrange(40)
            priority = round(rng.uniform(0, 50), 2)
            changed = heap.push_or_decrease(key, priority)
            expected_change = key not in reference or priority < reference[key]
            assert changed == expected_change
            if expected_change:
                reference[key] = priority
        elif reference:
            key, priority = heap.pop()
            assert priority == min(reference.values())
            assert reference.pop(key) == priority
        assert heap.check_invariant()
    drained = [heap.pop()[1] for _ in range(len(heap))]
    assert drained == sorted(drained)
    assert not reference or len(drained) == len(reference)
