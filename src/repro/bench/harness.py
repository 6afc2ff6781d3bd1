"""The benchmark harness: deterministic work counters per algorithm.

:func:`run_workload` runs every applicable
:class:`~repro.core.config.AlgorithmKind` exactly once over one
:class:`~repro.bench.workloads.Workload`'s query batch through
:meth:`~repro.core.engine.ReverseKRanksEngine.query_many` and records the
batch's summed :class:`~repro.core.types.QueryStats` counters — rank
refinements, settled nodes, tree pops and pushes, pruning and index hits.
That is the machine-independent measure the paper reports beside query
time (Tables 5-11).  No wall-clock is recorded: the same code yields the
same counters on every machine and interpreter, so reports compare
exactly.

The protocol is fixed.  Naive, static and dynamic each run the batch once
on the engine's compilation.  Indexed builds the hub index from the
workload's ``index_params`` (capacity ``max(k, 16)`` unless they name
one) and then runs the batch once, so its row measures the hub index plus
what the batch itself learns, never a replay of answers already learned.

Every row is cross-validated during the run; a disagreement raises
:class:`~repro.errors.CrossValidationError` and no report is written.
Workloads without ``naive_sample`` run naive exactly, and every other
algorithm must agree with it.  On workloads with ``naive_sample`` the
naive row is skipped — its counters are fixed by the workload,
``(n - 1)·|Q|`` rank refinements and nothing else, and exhaustive brute
force there takes minutes — so the other rows are checked against the
exact ranks of a seeded candidate sample (a sampled candidate strictly
inside a result's boundary must appear with exactly that rank) and
against each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.workloads import Workload
from repro.core.config import AlgorithmKind
from repro.core.engine import ReverseKRanksEngine
from repro.core.types import QueryResult, QueryStats
from repro.core.validation import results_equivalent
from repro.errors import CrossValidationError, WorkloadError
from repro.traversal.rank import exact_rank

__all__ = ["AlgorithmCounters", "WorkloadResult", "run_workload", "run_suite"]

#: Canonical order: the baseline first (its results validate the rest),
#: then by increasing sophistication.
_KIND_ORDER = (
    AlgorithmKind.NAIVE,
    AlgorithmKind.STATIC,
    AlgorithmKind.DYNAMIC,
    AlgorithmKind.INDEXED,
)


@dataclass
class AlgorithmCounters:
    """One algorithm's summed work counters on one workload, or why it was skipped."""

    counters: Optional[Dict[str, object]] = None
    skipped: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view: ``{"counters": {...}}`` or ``{"skipped": reason}``."""
        if self.skipped is not None:
            return {"skipped": self.skipped}
        return {"counters": self.counters}


@dataclass
class WorkloadResult:
    """Every algorithm's row for one workload, plus the workload itself."""

    workload: Workload
    algorithms: Dict[str, AlgorithmCounters] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view: the workload's metadata plus its rows."""
        payload = self.workload.describe()
        payload["algorithms"] = {
            name: row.as_dict() for name, row in self.algorithms.items()
        }
        return payload


def _counters(stats: QueryStats) -> Dict[str, object]:
    """A batch's summed ``QueryStats`` fields, without wall-clock."""
    counters = stats.as_dict()
    del counters["elapsed_seconds"]
    counters["bound_wins"] = dict(sorted(stats.bound_wins.items()))
    return counters


def _validate_batch(
    workload: Workload,
    baseline: List[QueryResult],
    contender: List[QueryResult],
    label: str,
    baseline_label: str = "naive",
) -> None:
    for expected, actual in zip(baseline, contender):
        if not results_equivalent(expected, actual):
            raise CrossValidationError(
                f"{label} disagrees with {baseline_label} on workload "
                f"{workload.name!r} for query={expected.query!r}, "
                f"k={workload.k}: {baseline_label}={expected.as_pairs()!r} vs "
                f"{label}={actual.as_pairs()!r}"
            )


def _sample_candidates(workload: Workload) -> List[object]:
    """The deterministic validation candidate sample of a workload."""
    rng = random.Random(workload.seed * 65_537 + 0x5A17)
    ordered = sorted(workload.graph.nodes(), key=repr)
    return rng.sample(ordered, min(workload.naive_sample, len(ordered)))


def _exact_sample_ranks(
    workload: Workload, search_graph, sample: List[object]
) -> Dict[object, Dict[object, float]]:
    """Exact ``Rank(p, q)`` for every sampled ``p`` and workload query ``q``."""
    return {
        query: {
            candidate: exact_rank(search_graph, candidate, query)
            for candidate in sample
            if candidate != query
        }
        for query in workload.queries
    }


def _spot_validate_sampled(
    workload: Workload,
    batch: List[QueryResult],
    sample_ranks: Dict[object, Dict[object, float]],
    label: str,
) -> None:
    """Check an optimised batch against the sampled candidates' exact ranks.

    Every sampled candidate ranked strictly below a result's boundary must
    appear in that result with exactly its exact rank, and any sampled
    candidate that does appear must carry its exact rank.
    """
    for result in batch:
        ranks = result.ranks()
        boundary = result.kth_rank()
        for candidate, rank in sample_ranks[result.query].items():
            if candidate in ranks:
                if ranks[candidate] != rank:
                    raise CrossValidationError(
                        f"{label} reports rank {ranks[candidate]!r} for "
                        f"{candidate!r} on workload {workload.name!r} "
                        f"(query={result.query!r}), exact rank is {rank!r}"
                    )
            elif rank < boundary:
                raise CrossValidationError(
                    f"{label} omits {candidate!r} (exact rank {rank!r}, "
                    f"result boundary {boundary!r}) on workload "
                    f"{workload.name!r} (query={result.query!r})"
                )


def run_workload(workload: Workload) -> WorkloadResult:
    """Count every algorithm's work on one run of ``workload``'s batch.

    Rows are keyed by algorithm name.  Indexed is skipped on bichromatic
    workloads (it is monochromatic-only) and naive on workloads with
    ``naive_sample``; see the module docstring for the protocol and how
    each row is validated.

    Raises
    ------
    CrossValidationError
        When an algorithm disagrees with naive, with the sampled exact
        ranks, or with the algorithm validated before it.
    """
    if workload.naive_sample is not None and workload.partition is not None:
        raise WorkloadError(
            "sampled naive baselines are monochromatic-only for now"
        )
    engine = ReverseKRanksEngine(workload.graph, partition=workload.partition)
    result = WorkloadResult(workload=workload)
    baseline: Optional[List[QueryResult]] = None
    sample_ranks: Optional[Dict[object, Dict[object, float]]] = None
    reference: Optional[List[QueryResult]] = None
    reference_label = ""
    if workload.naive_sample is not None:
        sample = _sample_candidates(workload)
        sample_ranks = _exact_sample_ranks(workload, engine.compact_graph(), sample)

    for kind in _KIND_ORDER:
        row = result.algorithms[kind.value] = AlgorithmCounters()
        if kind is AlgorithmKind.INDEXED and workload.partition is not None:
            row.skipped = "indexed algorithm is monochromatic-only"
            continue
        if kind is AlgorithmKind.NAIVE and sample_ranks is not None:
            refinements = (workload.num_nodes - 1) * len(workload.queries)
            row.skipped = (
                f"naive_sample workload: naive's counters are fixed, "
                f"(n-1)*|Q| = {refinements} rank refinements and nothing "
                f"else; rows are checked against the exact ranks of "
                f"{len(sample)} sampled candidates"
            )
            continue
        if kind is AlgorithmKind.INDEXED:
            build_kwargs = dict(workload.index_params)
            capacity = int(build_kwargs.pop("capacity", max(workload.k, 16)))
            engine.build_index(capacity=capacity, **build_kwargs)

        batch = engine.query_many(workload.queries, workload.k, algorithm=kind)
        if kind is AlgorithmKind.NAIVE:
            baseline = batch
        elif baseline is not None:
            _validate_batch(workload, baseline, batch, kind.value)
        else:
            _spot_validate_sampled(workload, batch, sample_ranks, kind.value)
            if reference is not None:
                _validate_batch(
                    workload, reference, batch, kind.value,
                    baseline_label=reference_label,
                )
            reference, reference_label = batch, kind.value
        row.counters = _counters(engine.last_batch_stats)
    return result


def run_suite(workloads: List[Workload], progress=None) -> List[WorkloadResult]:
    """Run every workload through :func:`run_workload`.

    ``progress`` is an optional ``callable(str)`` invoked with a short
    status line before each workload (the CLI passes ``print``).
    """
    results = []
    for workload in workloads:
        if progress is not None:
            progress(
                f"benchmarking {workload.name} "
                f"(|V|={workload.num_nodes}, |E|={workload.num_edges}, "
                f"{len(workload.queries)} queries, k={workload.k})"
            )
        results.append(run_workload(workload))
    return results
