"""Result and statistics types shared by every query algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

NodeId = Hashable

__all__ = [
    "RankedNode",
    "QueryStats",
    "QueryResult",
    "PRUNED",
]

#: Sentinel returned by the rank refinement when the node was pruned
#: (its rank is guaranteed to exceed the current kRank bound).  The paper's
#: pseudo-code returns ``-1``.
PRUNED = -1


@dataclass(frozen=True, order=True)
class RankedNode:
    """A result entry: a node together with its exact ``Rank(node, q)`` value.

    Ordering is by ``(rank, repr(node))`` so result lists sort
    deterministically even when ranks tie.
    """

    rank: float
    node: NodeId = field(compare=False)
    sort_key: str = field(default="", repr=False)

    @staticmethod
    def make(node: NodeId, rank: float) -> "RankedNode":
        """Create a ranked node with a deterministic tie-break key."""
        return RankedNode(rank=rank, node=node, sort_key=repr(node))

    def __post_init__(self) -> None:
        if not self.sort_key:
            object.__setattr__(self, "sort_key", repr(self.node))


@dataclass
class QueryStats:
    """Work counters collected while evaluating one query.

    The paper reports two performance measures: average query time and the
    number of *Rank Refinement* calls (its pruning-power proxy).  Both are
    here, along with finer-grained counters that the bound analysis
    (Table 11) and the ablation benchmarks use.
    """

    #: Wall-clock seconds spent answering the query.
    elapsed_seconds: float = 0.0
    #: Number of calls to the rank-refinement procedure (``GetRank``).
    rank_refinements: int = 0
    #: Number of refinement calls that terminated early (returned PRUNED).
    refinements_pruned: int = 0
    #: Total nodes settled across all refinement searches.
    refinement_nodes_settled: int = 0
    #: Nodes popped from the SDS-tree priority queue.
    tree_pops: int = 0
    #: Nodes pushed onto (or updated in) the SDS-tree priority queue.
    tree_pushes: int = 0
    #: Candidates skipped because their lower bound reached kRank.
    pruned_by_bound: int = 0
    #: Candidates skipped because the index already knew their rank.
    answered_by_index: int = 0
    #: Candidates skipped by the Check Dictionary pruning rule.
    pruned_by_check_dictionary: int = 0
    #: How often each lower-bound component was the (strict or tied) maximum
    #: when a candidate was evaluated: keys ``"parent"``, ``"height"``,
    #: ``"count"``, ``"index"``.
    bound_wins: Dict[str, int] = field(default_factory=dict)

    def record_bound_win(self, component: str) -> None:
        """Increment the win counter of a bound component."""
        self.bound_wins[component] = self.bound_wins.get(component, 0) + 1

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another query's counters into this one (for averaging)."""
        self.elapsed_seconds += other.elapsed_seconds
        self.rank_refinements += other.rank_refinements
        self.refinements_pruned += other.refinements_pruned
        self.refinement_nodes_settled += other.refinement_nodes_settled
        self.tree_pops += other.tree_pops
        self.tree_pushes += other.tree_pushes
        self.pruned_by_bound += other.pruned_by_bound
        self.answered_by_index += other.answered_by_index
        self.pruned_by_check_dictionary += other.pruned_by_check_dictionary
        for key, value in other.bound_wins.items():
            self.bound_wins[key] = self.bound_wins.get(key, 0) + value

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view used by the experiment reporting layer."""
        return {
            "elapsed_seconds": self.elapsed_seconds,
            "rank_refinements": self.rank_refinements,
            "refinements_pruned": self.refinements_pruned,
            "refinement_nodes_settled": self.refinement_nodes_settled,
            "tree_pops": self.tree_pops,
            "tree_pushes": self.tree_pushes,
            "pruned_by_bound": self.pruned_by_bound,
            "answered_by_index": self.answered_by_index,
            "pruned_by_check_dictionary": self.pruned_by_check_dictionary,
            "bound_wins": dict(self.bound_wins),
        }


@dataclass
class QueryResult:
    """The answer to one reverse k-ranks query.

    Attributes
    ----------
    query:
        The query node ``q``.
    k:
        The requested result size.
    entries:
        Result nodes with their exact ranks, sorted by increasing rank
        (deterministic tie-break on ``repr(node)``).  The list may be shorter
        than ``k`` when fewer than ``k`` nodes can reach ``q``.
    stats:
        Work counters for this query.
    algorithm:
        Name of the algorithm that produced the result.
    """

    query: NodeId
    k: int
    entries: List[RankedNode] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)
    algorithm: str = ""

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __contains__(self, node: NodeId) -> bool:
        return any(entry.node == node for entry in self.entries)

    def nodes(self) -> List[NodeId]:
        """Result nodes in rank order."""
        return [entry.node for entry in self.entries]

    def ranks(self) -> Dict[NodeId, float]:
        """Mapping from result node to its rank value."""
        return {entry.node: entry.rank for entry in self.entries}

    def rank_values(self) -> List[float]:
        """The sorted list of rank values (the algorithm-independent part)."""
        return sorted(entry.rank for entry in self.entries)

    def kth_rank(self) -> float:
        """The largest rank in the result (``inf`` when fewer than ``k`` entries)."""
        if len(self.entries) < self.k:
            return float("inf")
        return max(entry.rank for entry in self.entries)

    def is_full(self) -> bool:
        """Whether the result contains the requested ``k`` entries."""
        return len(self.entries) >= self.k

    def as_pairs(self) -> List[Tuple[NodeId, float]]:
        """Result as ``(node, rank)`` pairs in rank order."""
        return [(entry.node, entry.rank) for entry in self.entries]

    def summary(self) -> str:
        """One-line human-readable summary."""
        pairs = ", ".join(f"{entry.node}:{entry.rank:g}" for entry in self.entries)
        return f"reverse {self.k}-ranks of {self.query!r} -> [{pairs}]"
