"""Epoch-stamped scratch arena for the query hot loops.

Every reverse k-ranks query needs per-node working memory: the frontier
tables and settled set of the SDS-tree traversal, the same again *per
rank refinement* (of which a query runs many), plus three dense bound
lists (parent rank, tree height, ``lcount``).  Allocating and zeroing
them per query and per refinement would cost O(n) each time.

:class:`ScratchArena` keeps all of that storage alive across queries and
replaces the per-query zeroing with *epoch stamps*:

* membership structures (settled sets, pushed sets, notified sets, bound
  validity) are ``bytearray`` stamp tables managed by
  :class:`EpochStamps` — an entry is "set" iff its stamp equals the
  current epoch, so starting a new query or refinement is a counter
  increment, not an O(n) clear.  Stamps are one byte wide; the epoch
  wraps at 256, paying one amortised O(n) zeroing every 255 epochs
  instead of 8x the memory of a wider stamp;
* the dense per-node tables keep their storage and are guarded by stamp
  tables: a value written in epoch ``e`` is invisible (reads fall back
  to the search's defaults) from epoch ``e + 1`` on.  Each search's
  frontier is a ``heapq`` list of ``(distance, first_push, index)``
  tuples; its best-distance (``array('d')``) and first-push
  (``array('q')``) tables are guarded by the search's pushed stamps, so
  a refinement costs O(its frontier), not O(n).

Per-search dicts would cost O(frontier) too (``csr_ops``'s top-k
stream uses them), and ran level with these tables, but cost memory: a
dict entry with its boxed float and int takes several times the 16
bytes a node costs here, and cold-index refinements reach most of the
graph.  Measured on a 2-vCPU VM, e2ebench serve-road (100×100 lattice,
4 alternating pairs) read 1,284 queries/s with these tables and 1,286
with dicts, traced ``traversal.sds_ms`` 0.190 against 0.200 ms, and a
peak RSS of 95.1 against 96.0 MiB (dicts higher in 4 of 4 pairs);
mixed-road (60×60) stayed within its noise (traced ``traversal.sds_ms``
1.116 against 1.010 ms, one run each; peak RSS 173.9 against 173.6).

One arena is owned per engine (and therefore per worker process, whose
private engine owns its own) and threaded through
:class:`~repro.traversal.csr_sds.CompactSDSTreeSearch`, whose SDS-tree
traversal and nested rank refinements draw from it.  The arena grows (never
shrinks) when a larger graph arrives: stale stamps from the smaller
graph are invisible by construction, because new entries start at stamp
0 and valid epochs start at 1.

Arenas are *not* thread- or process-safe: they assume the engine's
existing one-query-at-a-time discipline (refinements nest inside a
traversal, which is why tree and refinement scratch are separate
members).
"""

from __future__ import annotations

from array import array

__all__ = ["EpochStamps", "ScratchArena"]

#: One-byte stamps wrap here; ``advance`` zeroes the table and restarts at 1.
_EPOCH_LIMIT = 256


class EpochStamps:
    """A reusable membership set over dense int keys with O(1) epoch reset.

    ``stamps[key] == epoch`` means "key is in the set for the current
    epoch"; every other stamp value (older epochs, or 0 for never
    touched) means absent.  :meth:`advance` starts a new, empty epoch in
    O(1) — except once every 255 epochs, when the one-byte stamps wrap
    and the table is zeroed (amortised O(1) per epoch).

    Examples
    --------
    >>> stamps = EpochStamps(4)
    >>> epoch = stamps.advance()
    >>> stamps.stamps[2] = epoch
    >>> stamps.is_current(2)
    True
    >>> _ = stamps.advance()   # stale entries from the old epoch vanish
    >>> stamps.is_current(2)
    False
    """

    __slots__ = ("stamps", "epoch")

    def __init__(self, capacity: int = 0) -> None:
        self.stamps = bytearray(capacity)
        self.epoch = 0  # valid epochs are 1..255; stamp 0 = never touched

    @property
    def capacity(self) -> int:
        """Number of keys the stamp table covers."""
        return len(self.stamps)

    def grow(self, capacity: int) -> None:
        """Extend the table; new keys start unstamped (absent in any epoch)."""
        if capacity > len(self.stamps):
            self.stamps.extend(bytes(capacity - len(self.stamps)))

    def advance(self) -> int:
        """Start a new, empty epoch; returns the stamp value that marks
        membership in it.

        The table object is zeroed *in place* on wraparound, so callers
        may keep a local reference to :attr:`stamps` across epochs — but
        must call :meth:`advance` before caching it for a new epoch.
        """
        self.epoch += 1
        if self.epoch == _EPOCH_LIMIT:
            self.stamps[:] = bytes(len(self.stamps))
            self.epoch = 1
        return self.epoch

    def is_current(self, key: int) -> bool:
        """Whether ``key`` is stamped in the current epoch (test helper)."""
        return self.stamps[key] == self.epoch


class ScratchArena:
    """Reusable per-engine scratch memory for SDS-tree queries.

    Members are deliberately public: the hot loops bind them to locals
    once per query/refinement and index them directly.  Call
    :meth:`ensure_capacity` before binding anything for a graph, and
    ``advance()`` a stamp table to start a new search on it.

    Attributes
    ----------
    tree_settled / refine_settled / refine_notified:
        :class:`EpochStamps` membership sets (settled nodes of either
        search; nodes already counted into ``lcount``).  Tree and
        refinement scratch are distinct because refinements run while
        the traversal is live.
    tree_pushed / refine_pushed:
        :class:`EpochStamps` marking the nodes each search has pushed;
        they guard the frontier tables below.
    tree_best / refine_best:
        ``array('d')`` of the best distance each pushed node has been
        pushed at (a later push must be a strict decrease).
    tree_first / refine_first:
        ``array('q')`` of each pushed node's first-push number, which it
        keeps when its distance drops: equal distances pop in the order
        the nodes were first reached.
    parent_bound / height_bound / lcount:
        The three dense Theorem-2 bound lists, guarded by
        ``bound_stamps`` (parent + height are always written together)
        and ``lcount_stamps`` respectively.
    """

    __slots__ = (
        "_capacity",
        "queries_served",
        "tree_settled",
        "tree_pushed",
        "tree_best",
        "tree_first",
        "refine_settled",
        "refine_pushed",
        "refine_best",
        "refine_first",
        "refine_notified",
        "bound_stamps",
        "lcount_stamps",
        "parent_bound",
        "height_bound",
        "lcount",
    )

    def __init__(self, capacity: int = 0) -> None:
        self._capacity = 0
        #: How many queries have drawn scratch from this arena (telemetry).
        self.queries_served = 0
        self.tree_settled = EpochStamps()
        self.tree_pushed = EpochStamps()
        self.tree_best = array("d")
        self.tree_first = array("q")
        self.refine_settled = EpochStamps()
        self.refine_pushed = EpochStamps()
        self.refine_best = array("d")
        self.refine_first = array("q")
        self.refine_notified = EpochStamps()
        self.bound_stamps = EpochStamps()
        self.lcount_stamps = EpochStamps()
        self.parent_bound: list = []
        self.height_bound: list = []
        self.lcount: list = []
        if capacity:
            self.ensure_capacity(capacity)

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Number of dense node slots currently allocated."""
        return self._capacity

    def ensure_capacity(self, capacity: int) -> None:
        """Grow every dense structure to cover ``capacity`` node indexes.

        Growth never invalidates epochs: fresh slots carry stamp 0,
        which no live epoch matches, so they read as the defaults until
        first written.  The arena never shrinks.
        """
        if capacity <= self._capacity:
            return
        extra = capacity - self._capacity
        for stamps in (
            self.tree_settled,
            self.tree_pushed,
            self.refine_settled,
            self.refine_pushed,
            self.refine_notified,
            self.bound_stamps,
            self.lcount_stamps,
        ):
            stamps.grow(capacity)
        for table in (
            self.tree_best,
            self.tree_first,
            self.refine_best,
            self.refine_first,
        ):
            table.frombytes(bytes(table.itemsize * extra))
        self.parent_bound.extend([0.0] * extra)
        self.height_bound.extend([1] * extra)
        self.lcount.extend([0] * extra)
        self._capacity = capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<ScratchArena capacity={self._capacity} "
            f"queries_served={self.queries_served}>"
        )
