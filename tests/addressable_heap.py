"""Addressable binary min-heap with decrease-key (test reference).

The paper's pseudo-code keeps a priority queue ``Q`` of nodes keyed by their
tentative distance, and *updates* the key of a node already in the queue when
a shorter path is found (``if t ∈ Q and t.dis > dis then t.dis ← dis``).
This classic index-tracked binary heap over hashable items drives the
textbook Dijkstra that the library's ``heapq`` frontiers are checked
against in lockstep (``test_first_push_order.py``): same settle order,
same insertion-order ties.

The implementation favours clarity over micro-optimisation but is still
O(log n) per operation.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterator, List, Optional, Tuple, TypeVar

__all__ = ["AddressableHeap"]

K = TypeVar("K", bound=Hashable)


class AddressableHeap(Generic[K]):
    """Binary min-heap over ``(priority, item)`` pairs with decrease-key.

    Items must be hashable and unique within the heap.  Ties on priority are
    broken by insertion order, which makes traversal order deterministic for
    a fixed input graph — important for reproducible experiments.

    Examples
    --------
    >>> heap = AddressableHeap()
    >>> heap.push("a", 3.0)
    >>> heap.push("b", 1.0)
    >>> heap.decrease_key("a", 0.5)
    True
    >>> heap.pop()
    ('a', 0.5)
    >>> heap.pop()
    ('b', 1.0)
    """

    __slots__ = ("_entries", "_positions", "_counter")

    def __init__(self) -> None:
        # Each entry is [priority, tie_breaker, item].
        self._entries: List[List] = []
        self._positions: Dict[K, int] = {}
        self._counter = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, item: K) -> bool:
        return item in self._positions

    def __iter__(self) -> Iterator[K]:
        """Iterate over items currently in the heap (unspecified order)."""
        return iter(self._positions)

    # ------------------------------------------------------------------
    def push(self, item: K, priority: float) -> None:
        """Insert ``item`` with ``priority``.

        Raises
        ------
        ValueError
            If the item is already in the heap (use :meth:`decrease_key` or
            :meth:`push_or_decrease` instead).
        """
        if item in self._positions:
            raise ValueError(f"item {item!r} is already in the heap")
        entry = [priority, self._counter, item]
        self._counter += 1
        self._entries.append(entry)
        index = len(self._entries) - 1
        self._positions[item] = index
        self._sift_up(index)

    def pop(self) -> Tuple[K, float]:
        """Remove and return the ``(item, priority)`` pair with smallest priority."""
        if not self._entries:
            raise IndexError("pop from an empty heap")
        top = self._entries[0]
        last = self._entries.pop()
        del self._positions[top[2]]
        if self._entries:
            self._entries[0] = last
            self._positions[last[2]] = 0
            self._sift_down(0)
        return top[2], top[0]

    def peek(self) -> Tuple[K, float]:
        """Return (without removing) the smallest ``(item, priority)`` pair."""
        if not self._entries:
            raise IndexError("peek into an empty heap")
        top = self._entries[0]
        return top[2], top[0]

    def priority(self, item: K) -> float:
        """Current priority of ``item``; raises ``KeyError`` if absent."""
        index = self._positions[item]
        return self._entries[index][0]

    def get_priority(self, item: K) -> Optional[float]:
        """Current priority of ``item`` or ``None`` if absent."""
        index = self._positions.get(item)
        if index is None:
            return None
        return self._entries[index][0]

    def decrease_key(self, item: K, priority: float) -> bool:
        """Lower the priority of ``item`` to ``priority``.

        Returns ``True`` if the priority was lowered, ``False`` if the new
        priority is not smaller than the current one (no change is made).
        """
        index = self._positions[item]
        if priority >= self._entries[index][0]:
            return False
        self._entries[index][0] = priority
        self._sift_up(index)
        return True

    def push_or_decrease(self, item: K, priority: float) -> bool:
        """Insert ``item`` or lower its priority, whichever applies.

        Returns ``True`` if the heap changed (new item, or key decreased).
        This is the exact operation the paper's pseudo-code performs on ``Q``.
        """
        if item in self._positions:
            return self.decrease_key(item, priority)
        self.push(item, priority)
        return True

    def remove(self, item: K) -> float:
        """Remove ``item`` from the heap, returning its priority."""
        index = self._positions.pop(item)
        entry = self._entries[index]
        last = self._entries.pop()
        if index < len(self._entries):
            self._entries[index] = last
            self._positions[last[2]] = index
            self._sift_down(index)
            self._sift_up(index)
        return entry[0]

    def clear(self) -> None:
        """Remove every item."""
        self._entries.clear()
        self._positions.clear()

    # ------------------------------------------------------------------
    # Heap maintenance
    # ------------------------------------------------------------------
    def _less(self, i: int, j: int) -> bool:
        return self._entries[i][:2] < self._entries[j][:2]

    def _swap(self, i: int, j: int) -> None:
        self._entries[i], self._entries[j] = self._entries[j], self._entries[i]
        self._positions[self._entries[i][2]] = i
        self._positions[self._entries[j][2]] = j

    def _sift_up(self, index: int) -> None:
        while index > 0:
            parent = (index - 1) // 2
            if self._less(index, parent):
                self._swap(index, parent)
                index = parent
            else:
                break

    def _sift_down(self, index: int) -> None:
        size = len(self._entries)
        while True:
            left = 2 * index + 1
            right = left + 1
            smallest = index
            if left < size and self._less(left, smallest):
                smallest = left
            if right < size and self._less(right, smallest):
                smallest = right
            if smallest == index:
                break
            self._swap(index, smallest)
            index = smallest

    # ------------------------------------------------------------------
    def check_invariant(self) -> bool:
        """Verify the heap property (used by the property-based tests)."""
        size = len(self._entries)
        for index in range(size):
            left = 2 * index + 1
            right = left + 1
            if left < size and self._less(left, index):
                return False
            if right < size and self._less(right, index):
                return False
        for item, position in self._positions.items():
            if self._entries[position][2] != item:
                return False
        return True
