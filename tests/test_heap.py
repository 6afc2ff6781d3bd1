"""Unit tests for the addressable heap behind the settle-order reference."""

from __future__ import annotations

import random

import pytest

from addressable_heap import AddressableHeap


def test_pop_orders_by_priority():
    heap = AddressableHeap()
    for item, priority in [("a", 3.0), ("b", 1.0), ("c", 2.0), ("d", 0.5)]:
        heap.push(item, priority)
    assert [heap.pop() for _ in range(len(heap))] == [
        ("d", 0.5),
        ("b", 1.0),
        ("c", 2.0),
        ("a", 3.0),
    ]


def test_ties_break_by_insertion_order():
    heap = AddressableHeap()
    heap.push("later", 1.0)
    heap.push("earlier", 1.0)
    assert heap.pop() == ("later", 1.0)
    assert heap.pop() == ("earlier", 1.0)


def test_duplicate_push_rejected():
    heap = AddressableHeap()
    heap.push("a", 1.0)
    with pytest.raises(ValueError):
        heap.push("a", 2.0)


def test_pop_and_peek_empty_raise():
    heap = AddressableHeap()
    with pytest.raises(IndexError):
        heap.pop()
    with pytest.raises(IndexError):
        heap.peek()


def test_decrease_key_reorders():
    heap = AddressableHeap()
    heap.push("a", 5.0)
    heap.push("b", 2.0)
    assert heap.decrease_key("a", 1.0) is True
    assert heap.pop() == ("a", 1.0)
    # Not-a-decrease is refused without modifying the heap.
    assert heap.decrease_key("b", 9.0) is False
    assert heap.priority("b") == 2.0


def test_push_or_decrease_and_membership():
    heap = AddressableHeap()
    assert heap.push_or_decrease("a", 4.0) is True
    assert "a" in heap
    assert heap.push_or_decrease("a", 6.0) is False
    assert heap.push_or_decrease("a", 3.0) is True
    assert heap.get_priority("a") == 3.0
    assert heap.get_priority("missing") is None


def test_remove_keeps_invariant():
    heap = AddressableHeap()
    for item in range(10):
        heap.push(item, float((item * 7) % 10))
    assert heap.remove(3) == float((3 * 7) % 10)
    assert 3 not in heap
    assert heap.check_invariant()
    drained = [heap.pop()[1] for _ in range(len(heap))]
    assert drained == sorted(drained)


def test_randomized_operations_match_reference():
    rng = random.Random(42)
    heap = AddressableHeap()
    reference = {}
    for step in range(600):
        action = rng.random()
        if action < 0.5:
            item = rng.randrange(60)
            priority = round(rng.uniform(0, 100), 3)
            if item in reference:
                if priority < reference[item]:
                    heap.decrease_key(item, priority)
                    reference[item] = priority
            else:
                heap.push(item, priority)
                reference[item] = priority
        elif reference:
            item, priority = heap.pop()
            assert priority == min(reference.values())
            assert reference.pop(item) == priority
        assert heap.check_invariant()
    while reference:
        item, priority = heap.pop()
        assert priority == min(reference.values())
        assert reference.pop(item) == priority
