"""CSR index-space SDS-tree filter-and-refine pipeline.

The traversal, Theorem-2 bound checks and bounded ``GetRank`` refinements
of the paper (Algorithms 1-4) run here over the flat
:class:`~repro.graph.csr.CompactGraph` adjacency buffers with integer node
indexes and a ``heapq`` frontier — no node-id hashing, no per-neighbour
generator frames, no dict-of-dict adjacency walks.
:meth:`repro.core.framework.SDSTreeSearch.run` drives it for every query;
node identifiers are translated to CSR indexes once at query entry and
back only at the few boundaries that leave index space (result-set offers
and hub-index reads/writes).

All working memory is drawn from an epoch-stamped
:class:`~repro.traversal.arena.ScratchArena` (the caller's — normally the
engine's, reused across every query it answers — or a private one when
none is supplied): the settled/pushed/notified sets, the frontier's
best-distance and first-push tables and the three dense Theorem-2 bound
lists live in the arena, and a new query or refinement claims them with
an O(1) epoch bump instead of O(n) reallocation.  Values written in an
earlier epoch are invisible — reads fall back to exactly the defaults a
fresh allocation would hold — so arena reuse is behaviour-preserving by
construction.

Determinism
-----------
Both searches keep the paper's priority queue ``Q`` with decrease-key as
a ``heapq`` list of ``(distance, first_push, index)`` tuples with lazy
deletion: a node is pushed again only when its distance strictly drops,
keeping the first-push number it got when first reached, and a pop of an
already-settled node is skipped.  Equal-distance nodes therefore settle
in the order they were first reached, and :class:`CompactGraph` compiles
adjacency rows in the source graph's iteration order (overlay rows
included).  Ranks do not depend on that order, but the result's
boundary-tie members, the hub-index entries a refinement records and
every :class:`~repro.core.types.QueryStats` counter do.
``tests/sds_golden.json`` pins all of them, and the scratch-arena suite
asserts reuse-vs-fresh identity.

Correctness under pruning
-------------------------
Because pruned subtrees are not expanded, the traversal may later reach a
pruned node's descendant through a longer, non-shortest path; such a node's
popped distance (and therefore its height and ``lcount`` bounds) can be
over-estimates.  Refined ranks stay exact regardless: the refinement settles
the query node itself inside the (possibly inflated) radius, so every rank
offered to the result set is the true ``Rank(p, q)``.  Over-estimated
*bounds* can only prune nodes whose popped distance is inflated, and by
induction over the pop order every such node descends from a
genuinely-prunable node, hence its true rank is at least the ``kRank`` in
force when it is pruned — it can neither displace a strictly-better result
nor change the result's rank values.  Only the identity of entries tied at
the final ``kRank`` may differ from the brute-force baseline (see
:func:`repro.core.validation.results_equivalent`).

Lemma-3 validity of ``lcount`` survives inflated radii: ``lcount[w]`` is
only read when ``w`` pops after the refined node ``p``, so by heap
monotonicity ``d(p, w) < radius <= popped(w)``.  When ``w``'s pop is exact
every recorded visit comes from a node strictly closer to ``w`` than ``q``
— a true rank witness — and when it is inflated, ``w`` descends from a
pruned node whose true rank already reaches the ``kRank`` in force.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Hashable, Optional

from repro.traversal.arena import ScratchArena

NodeId = Hashable
Predicate = Callable[[NodeId], bool]

__all__ = ["CompactSDSTreeSearch"]

#: Mirrors :data:`repro.core.types.PRUNED` without importing the core layer
#: at module scope (traversal sits below core in the layering).
_PRUNED = -1


class CompactSDSTreeSearch:
    """One reverse k-ranks query evaluated on CSR buffers.

    Constructed by :meth:`repro.core.framework.SDSTreeSearch.run`; mutates
    the caller's collector and stats in place so result assembly and
    labelling stay in one place.  All parameters are pre-resolved by the
    caller (bound activation flags instead of a ``BoundSet``, the query as
    a node id, predicates over node ids).  ``arena`` supplies the reusable
    scratch memory; omit it to allocate a private arena for this query.
    """

    __slots__ = (
        "_csr",
        "_query_node",
        "_query_index",
        "_collector",
        "_stats",
        "_index",
        "_use_parent",
        "_height_active",
        "_count_active",
        "_candidate_mask",
        "_counted_mask",
        "_rev_offsets",
        "_rev_endpoints",
        "_rev_weights",
        "_rev_rows",
        "_fwd_offsets",
        "_fwd_endpoints",
        "_fwd_weights",
        "_fwd_rows",
        "_arena",
        "_parent_bound",
        "_height_bound",
        "_lcount",
        "_bound_stamps",
        "_bound_epoch",
        "_lcount_stamps",
        "_lcount_epoch",
    )

    def __init__(
        self,
        csr,
        query: NodeId,
        collector,
        stats,
        index=None,
        use_parent: bool = False,
        height_active: bool = False,
        count_active: bool = False,
        candidate: Optional[Predicate] = None,
        counted: Optional[Predicate] = None,
        candidate_mask: Optional[bytearray] = None,
        counted_mask: Optional[bytearray] = None,
        arena: Optional[ScratchArena] = None,
    ) -> None:
        self._csr = csr
        self._query_node = query
        self._query_index = csr.index_of(query)
        self._collector = collector
        self._stats = stats
        self._index = index
        self._use_parent = use_parent
        self._height_active = height_active
        self._count_active = count_active

        # Predicates are evaluated once per node into flat masks; they are
        # pure membership tests (bichromatic partitions), so eager
        # evaluation cannot change their answers.  Callers that answer many
        # queries against one compilation (the engine) pass the masks in
        # pre-built instead — the predicates then serve only as the
        # fallback, and the O(n) evaluation is paid once per graph version
        # rather than once per query.  Masks are read-only here, so
        # sharing them across queries is safe.
        nodes = csr.node_ids
        if candidate_mask is not None:
            if len(candidate_mask) != len(nodes):
                raise ValueError(
                    "candidate mask length does not match the compilation "
                    f"({len(candidate_mask)} vs {len(nodes)} nodes)"
                )
            self._candidate_mask = candidate_mask
        else:
            self._candidate_mask = (
                None
                if candidate is None
                else bytearray(1 if candidate(node) else 0 for node in nodes)
            )
        if counted_mask is not None:
            if len(counted_mask) != len(nodes):
                raise ValueError(
                    "counted mask length does not match the compilation "
                    f"({len(counted_mask)} vs {len(nodes)} nodes)"
                )
            self._counted_mask = counted_mask
        else:
            self._counted_mask = (
                None
                if counted is None
                else bytearray(1 if counted(node) else 0 for node in nodes)
            )

        # The SDS-tree grows towards q, i.e. over in-adjacency; refinements
        # run outwards from each candidate, i.e. over out-adjacency.
        self._rev_offsets, self._rev_endpoints, self._rev_weights = csr.in_csr()
        self._fwd_offsets, self._fwd_endpoints, self._fwd_weights = csr.out_csr()
        # Delta-overlay side-tables (None on plain compilations): full
        # replacement rows keyed by node index, consulted before the frozen
        # buffers.  Rows enumerate neighbours in the same order a recompile
        # would, so the overlay path stays bit-identical to it.
        self._rev_rows = csr.overlay_in
        self._fwd_rows = csr.overlay_out

        num_nodes = csr.num_nodes
        if arena is None:
            arena = ScratchArena(num_nodes)
        else:
            arena.ensure_capacity(num_nodes)
        arena.queries_served += 1
        self._arena = arena
        # Epoch-guarded per-node bound lists: a read whose stamp is not
        # this query's epoch yields the default of a node not yet reached
        # (parent 0.0 / height 1 / lcount 0).  Parent and
        # height are always written together, so they share one stamp
        # table; lcount is written on a different schedule (inside
        # refinements) and gets its own.
        self._bound_epoch = arena.bound_stamps.advance()
        self._bound_stamps = arena.bound_stamps.stamps
        self._lcount_epoch = arena.lcount_stamps.advance()
        self._lcount_stamps = arena.lcount_stamps.stamps
        self._parent_bound = arena.parent_bound
        self._height_bound = arena.height_bound
        self._lcount = arena.lcount

    # ------------------------------------------------------------------
    # SDS-tree traversal (Dijkstra towards q over the in-adjacency rows)
    # ------------------------------------------------------------------
    def traverse(self) -> None:
        """Run the traversal, mutating the shared collector and stats."""
        query_index = self._query_index
        rev_offsets = self._rev_offsets
        rev_endpoints = self._rev_endpoints
        rev_weights = self._rev_weights
        rev_rows = self._rev_rows
        parent_bound = self._parent_bound
        height_bound = self._height_bound
        bound_stamps = self._bound_stamps
        bound_epoch = self._bound_epoch
        counted_mask = self._counted_mask
        stats = self._stats

        arena = self._arena
        settled_epoch = arena.tree_settled.advance()
        settled = arena.tree_settled.stamps
        pushed_epoch = arena.tree_pushed.advance()
        pushed = arena.tree_pushed.stamps
        best = arena.tree_best
        first = arena.tree_first
        process_candidate = self._process_candidate
        tree_pops = 0
        tree_pushes = 0
        # q pops first and never re-enters, so it needs no table entries.
        frontier = [(0.0, 0, query_index)]

        while frontier:
            distance, _, node = heappop(frontier)
            if settled[node] == settled_epoch:
                continue
            settled[node] = settled_epoch
            tree_pops += 1

            if node == query_index:
                child_height = 1
                child_parent_bound = 0.0
            else:
                expand_bound = process_candidate(node, distance)
                if expand_bound is None:
                    continue
                base_height = (
                    height_bound[node]
                    if bound_stamps[node] == bound_epoch
                    else 1
                )
                # Lemma 2: a counted ancestor is strictly closer to its
                # descendants than q only if it is itself strictly farther
                # from q than q is; a zero-weight path can put it at 0.
                child_height = base_height + (
                    1
                    if distance > 0.0
                    and (counted_mask is None or counted_mask[node])
                    else 0
                )
                child_parent_bound = expand_bound

            row = rev_rows.get(node) if rev_rows is not None else None
            if row is None:
                endpoints, edge_weights = rev_endpoints, rev_weights
                start, stop = rev_offsets[node], rev_offsets[node + 1]
            else:
                endpoints, edge_weights = row
                start, stop = 0, len(endpoints)
            for position in range(start, stop):
                neighbor = endpoints[position]
                if settled[neighbor] == settled_epoch:
                    continue
                candidate = distance + edge_weights[position]
                if pushed[neighbor] != pushed_epoch:
                    # tree_pushes only grows, so it numbers first pushes.
                    pushed[neighbor] = pushed_epoch
                    first[neighbor] = order = tree_pushes
                elif candidate < best[neighbor]:
                    order = first[neighbor]
                else:
                    continue
                best[neighbor] = candidate
                heappush(frontier, (candidate, order, neighbor))
                tree_pushes += 1
                height_bound[neighbor] = child_height
                parent_bound[neighbor] = child_parent_bound
                bound_stamps[neighbor] = bound_epoch

        stats.tree_pops += tree_pops
        stats.tree_pushes += tree_pushes

    # ------------------------------------------------------------------
    # Candidate processing
    # ------------------------------------------------------------------
    def _process_candidate(self, node: int, distance: float) -> Optional[float]:
        candidate_mask = self._candidate_mask
        is_candidate = candidate_mask is None or bool(candidate_mask[node])
        collector = self._collector
        stats = self._stats
        index = self._index
        k_rank = collector.k_rank

        node_id = None
        if is_candidate and index is not None:
            node_id = self._csr.node_at(node)
            known = index.known_rank(node_id, self._query_node)
            if known is not None:
                stats.answered_by_index += 1
                collector.offer(node_id, known)
                if known <= collector.k_rank:
                    return float(known)
                return None

        lower_bound, winner = self._lower_bound(node, node_id)
        if winner is not None:
            stats.record_bound_win(winner)

        if not is_candidate:
            if lower_bound >= k_rank:
                stats.pruned_by_bound += 1
                return None
            parent = (
                self._parent_bound[node]
                if self._bound_stamps[node] == self._bound_epoch
                else 0.0
            )
            return parent if parent > lower_bound else lower_bound

        if lower_bound >= k_rank:
            if winner == "index":
                stats.pruned_by_check_dictionary += 1
            else:
                stats.pruned_by_bound += 1
            return None

        rank = self._refine(node, distance, k_rank)
        if rank is None:
            return None
        collector.offer(self._csr.node_at(node), rank)
        return float(rank)

    def _lower_bound(self, node: int, node_id) -> "tuple[float, Optional[str]]":
        """Theorem-2 lower bound and the component that attains it.

        Ties go to the first of parent > height > count > index (the
        Check Dictionary), the attribution the paper's Table 11 reports.

        ``node_id`` is the already-translated identifier when the caller
        has one (indexed mode), else ``None`` and translated on demand.
        """
        best = None
        winner = None
        bound_current = self._bound_stamps[node] == self._bound_epoch
        if self._use_parent:
            best = self._parent_bound[node] if bound_current else 0.0
            winner = "parent"
        if self._height_active:
            value = float(self._height_bound[node] if bound_current else 1)
            if best is None or value > best:
                best = value
                winner = "height"
        if self._count_active:
            value = float(
                self._lcount[node]
                if self._lcount_stamps[node] == self._lcount_epoch
                else 0
            )
            if best is None or value > best:
                best = value
                winner = "count"
        if self._index is not None:
            if node_id is None:
                node_id = self._csr.node_at(node)
            check_value = self._index.check_value(node_id)
            if check_value is not None:
                value = float(check_value)
                if best is None or value > best:
                    best = value
                    winner = "index"
        if best is None:
            return 0.0, None
        return best, winner

    # ------------------------------------------------------------------
    # Bounded rank refinement (the paper's GetRank, Algorithms 2 and 4)
    # ------------------------------------------------------------------
    def _refine(self, source: int, radius: float, k_rank: float) -> Optional[int]:
        """Exact ``Rank(source, q)``, or ``None`` once it must exceed ``k_rank``.

        A Dijkstra search from ``source`` runs until the query node itself
        settles: the rank is one plus the number of counted nodes settled
        in tie groups *strictly closer* than ``q``.  Settling ``q`` (rather
        than counting pushes inside an exclusive radius) keeps the rank
        exact when ``radius`` over-estimates ``d(source, q)`` under
        Theorem-1 pruning, and the radius does not filter the frontier —
        the same path summed from its two ends can differ in the last
        ulp.  Whenever a tie group closes with the partial rank already
        above ``k_rank`` the search aborts (Algorithm 2, line 17): the
        partial rank is a valid lower bound because ``q`` is unsettled.

        Along the way every node pushed *strictly* inside ``radius`` bumps
        its ``lcount`` once (Lemma 3 needs the strict inequality), and
        with an index every settled node — ``q`` included — is recorded
        with its exact rank from ``source`` (Algorithm 4).
        """
        stats = self._stats
        stats.rank_refinements += 1
        csr = self._csr
        index = self._index
        fwd_offsets = self._fwd_offsets
        fwd_endpoints = self._fwd_endpoints
        fwd_weights = self._fwd_weights
        fwd_rows = self._fwd_rows
        counted_mask = self._counted_mask
        lcount = self._lcount
        lcount_stamps = self._lcount_stamps
        lcount_epoch = self._lcount_epoch
        query_index = self._query_index
        node_at = csr.node_at
        source_id = node_at(source) if index is not None else None

        arena = self._arena
        settled_epoch = arena.refine_settled.advance()
        settled = arena.refine_settled.stamps
        pushed_epoch = arena.refine_pushed.advance()
        pushed = arena.refine_pushed.stamps
        best = arena.refine_best
        first = arena.refine_first
        first_pushes = 0
        settled_count = 0
        # The source pops first and never re-enters (no table entries).
        frontier = [(0.0, 0, source)]
        # Nodes already counted into lcount; a node may only cross below
        # the radius via a later decrease-key and must count exactly once.
        if self._count_active:
            notified_epoch = arena.refine_notified.advance()
            notified = arena.refine_notified.stamps
        else:
            notified = None

        closer_counted = 0
        tie_counted = 0
        previous_distance: Optional[float] = None
        rank = _PRUNED

        while frontier:
            distance, _, node = heappop(frontier)
            if settled[node] == settled_epoch:
                continue
            settled[node] = settled_epoch
            settled_count += 1

            if node != source:
                if previous_distance is None or distance > previous_distance:
                    closer_counted += tie_counted
                    tie_counted = 0
                    previous_distance = distance
                    if closer_counted + 1 > k_rank:
                        break
                node_rank = closer_counted + 1
                if index is not None:
                    index.record_rank(source_id, node_at(node), node_rank)
                if node == query_index:
                    rank = node_rank
                    break
                if counted_mask is None or counted_mask[node]:
                    tie_counted += 1

            row = fwd_rows.get(node) if fwd_rows is not None else None
            if row is None:
                endpoints, edge_weights = fwd_endpoints, fwd_weights
                start, stop = fwd_offsets[node], fwd_offsets[node + 1]
            else:
                endpoints, edge_weights = row
                start, stop = 0, len(endpoints)
            for position in range(start, stop):
                neighbor = endpoints[position]
                if settled[neighbor] == settled_epoch:
                    continue
                candidate = distance + edge_weights[position]
                if pushed[neighbor] != pushed_epoch:
                    pushed[neighbor] = pushed_epoch
                    first[neighbor] = first_pushes
                    best[neighbor] = candidate
                    heappush(frontier, (candidate, first_pushes, neighbor))
                    first_pushes += 1
                elif candidate < best[neighbor]:
                    best[neighbor] = candidate
                    heappush(frontier, (candidate, first[neighbor], neighbor))
                if (
                    notified is not None
                    and candidate < radius
                    and notified[neighbor] != notified_epoch
                ):
                    notified[neighbor] = notified_epoch
                    if lcount_stamps[neighbor] == lcount_epoch:
                        lcount[neighbor] += 1
                    else:
                        lcount[neighbor] = 1
                        lcount_stamps[neighbor] = lcount_epoch

        settled_excluding_source = settled_count - 1
        stats.refinement_nodes_settled += settled_excluding_source
        if index is not None:
            index.record_exploration(source_id, settled_excluding_source)
        if rank == _PRUNED:
            stats.refinements_pruned += 1
            return None
        return rank
