"""The benchmark timing harness.

:func:`run_workload` times every applicable
:class:`~repro.core.config.AlgorithmKind` on one
:class:`~repro.bench.workloads.Workload` — warmup rounds first, then timed
repetitions of the whole query batch through
:meth:`~repro.core.engine.ReverseKRanksEngine.query_many` — and
cross-validates every optimised algorithm's results against the naive
baseline *during the run* (a disagreement raises
:class:`~repro.errors.CrossValidationError`, which fails the CI smoke job).

Large-scale workloads (``Workload.naive_sample`` set) time the naive
baseline over a deterministic candidate *sample* and extrapolate the
exhaustive cost; exhaustive brute force at thousands of nodes would run
for hours.  Validation stays real: every optimised algorithm is
spot-checked against the exact ranks of the sampled candidates (a sampled
candidate strictly inside the result boundary must appear with exactly
that rank), and the optimised algorithms are additionally cross-checked
against each other.

With ``index_cache`` set, the indexed algorithm first tries
:meth:`~repro.core.hub_index.HubIndex.load` from that directory and falls
back to building (then :meth:`~repro.core.hub_index.HubIndex.save`-ing) on
a miss, so repeated runs — and restarted servers — start warm.

Parallel rows (``name@wN``) additionally record how the workers received
the graph — ``graph_shared`` (mapped the shared-memory CSR segment vs
unpickled a private copy) and ``startup_payload_bytes`` (the pickled
init payload, near-constant under the shared transport) — and runs that
both build an index and have a parallel pass verify that a pool-built
index is *bit-identical* to the sequential build
(``parallel_index_consistent``).
"""

from __future__ import annotations

import json
import pickle
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench.workloads import Workload
from repro.core.config import AlgorithmKind
from repro.core.engine import ReverseKRanksEngine
from repro.core.hub_index import HubIndex
from repro.core.naive import naive_reverse_k_ranks
from repro.core.types import QueryResult
from repro.core.validation import results_equivalent
from repro.errors import (
    CrossValidationError,
    IndexParameterError,
    WorkloadError,
    is_positive_int,
)
from repro.obs.trace import summarize_trace
from repro.traversal.rank import exact_rank

__all__ = ["AlgorithmTiming", "WorkloadResult", "run_workload", "run_suite"]

#: Canonical benchmarking order: the baseline first (its results seed the
#: in-run validation), then by increasing sophistication.
_KIND_ORDER = (
    AlgorithmKind.NAIVE,
    AlgorithmKind.STATIC,
    AlgorithmKind.DYNAMIC,
    AlgorithmKind.INDEXED,
)


@dataclass
class AlgorithmTiming:
    """Wall-clock timings (and work counters) for one algorithm on one workload.

    ``algorithm`` doubles as the row key in the report: plain algorithm
    names for the first ``--workers`` value of a run, ``name@wN`` for
    every further value — so one report can carry a whole scaling axis.
    """

    algorithm: str
    repetitions: List[float] = field(default_factory=list)
    index_build_seconds: Optional[float] = None
    rank_refinements: int = 0
    validated: Optional[bool] = None
    speedup_vs_naive: Optional[float] = None
    skipped: Optional[str] = None
    #: Large-scale workloads only: how many candidates the naive baseline
    #: was timed on, and its extrapolated exhaustive batch cost.
    sampled_candidates: Optional[int] = None
    estimated_full_seconds: Optional[float] = None
    #: ``"hit"`` / ``"miss"`` when an ``index_cache`` directory was used.
    index_cache: Optional[str] = None
    #: How many worker processes executed the timed batches (1 = in-process).
    workers: int = 1
    #: Parallel rows only: this run's same-algorithm single-process batch
    #: time divided by this row's — the direct process-scaling factor.
    speedup_vs_serial: Optional[float] = None
    #: Parallel rows only: flat result-payload bytes per query that crossed
    #: the process boundary in one batch (reported by the shard codec).
    ipc_bytes_per_query: Optional[float] = None
    #: Parallel rows only: whether the workers attached the graph via the
    #: shared-memory segment (``True``) or fell back to unpickling a
    #: private copy (``False``).
    graph_shared: Optional[bool] = None
    #: Parallel rows only: bytes of the pickled worker-startup payload
    #: (facilities + hub-index snapshot + graph).  Under the shared-graph
    #: transport the graph contributes a fixed ~200-byte segment handle
    #: instead of its full pickle, so on index-free workloads this is
    #: near-constant in ``|V|``; with an index built it is dominated by
    #: the index snapshot.
    startup_payload_bytes: Optional[int] = None
    #: Traced runs only (``--trace``): the top spans of the last timed
    #: batch by inclusive time, ``[{"name", "total_s", "count"}, ...]``.
    #: Absent from untraced reports; :mod:`repro.bench.diff` ignores it.
    trace_summary: Optional[List[Dict[str, object]]] = None
    #: Mutation rows (``name@mut``) only: effective graph updates applied
    #: during the timed repetitions, and the :mod:`repro.obs` counter
    #: deltas observed across them — how many full CSR recompactions the
    #: updates forced (0 = every batch stayed on the delta-overlay) and
    #: how many in-place pool graph syncs replaced pool teardowns.
    updates_applied: Optional[int] = None
    csr_recompactions: Optional[int] = None
    pool_graph_syncs: Optional[int] = None

    @property
    def mean_seconds(self) -> Optional[float]:
        """Mean wall-clock seconds per timed repetition of the batch."""
        if not self.repetitions:
            return None
        return statistics.fmean(self.repetitions)

    @property
    def best_seconds(self) -> Optional[float]:
        """Fastest timed repetition of the batch."""
        return min(self.repetitions) if self.repetitions else None

    def per_query_seconds(self, num_queries: int) -> Optional[float]:
        """Mean wall-clock seconds per individual query."""
        mean = self.mean_seconds
        if mean is None or num_queries <= 0:
            return None
        return mean / num_queries

    def as_dict(self, num_queries: int) -> Dict[str, object]:
        """JSON-ready view."""
        payload: Dict[str, object] = {
            "algorithm": self.algorithm,
            "repetitions_seconds": list(self.repetitions),
            "mean_seconds": self.mean_seconds,
            "best_seconds": self.best_seconds,
            "per_query_seconds": self.per_query_seconds(num_queries),
            "rank_refinements": self.rank_refinements,
            "validated": self.validated,
            "speedup_vs_naive": self.speedup_vs_naive,
            "workers": self.workers,
        }
        if self.speedup_vs_serial is not None:
            payload["speedup_vs_serial"] = self.speedup_vs_serial
        if self.ipc_bytes_per_query is not None:
            payload["ipc_bytes_per_query"] = self.ipc_bytes_per_query
        if self.graph_shared is not None:
            payload["graph_shared"] = self.graph_shared
        if self.startup_payload_bytes is not None:
            payload["startup_payload_bytes"] = self.startup_payload_bytes
        if self.index_build_seconds is not None:
            payload["index_build_seconds"] = self.index_build_seconds
        if self.skipped is not None:
            payload["skipped"] = self.skipped
        if self.sampled_candidates is not None:
            payload["sampled_candidates"] = self.sampled_candidates
            payload["estimated_full_seconds"] = self.estimated_full_seconds
        if self.index_cache is not None:
            payload["index_cache"] = self.index_cache
        if self.trace_summary is not None:
            payload["trace_summary"] = self.trace_summary
        if self.updates_applied is not None:
            payload["updates_applied"] = self.updates_applied
            payload["csr_recompactions"] = self.csr_recompactions
            payload["pool_graph_syncs"] = self.pool_graph_syncs
        return payload


@dataclass
class WorkloadResult:
    """All algorithm timings for one workload, plus its metadata."""

    workload: Workload
    algorithms: Dict[str, AlgorithmTiming] = field(default_factory=dict)
    #: ``True`` when every parallel batch reproduced its sequential
    #: reference (rank-identical); ``None`` when no parallel pass ran.
    parallel_consistent: Optional[bool] = None
    #: ``True`` when a pool-built hub index was byte-identical (pickled
    #: exported state) to the sequentially built one; ``None`` when the
    #: run had no parallel pass, no indexed row, or loaded from cache.
    parallel_index_consistent: Optional[bool] = None
    #: ``True`` when the mutation pass's final overlay-path answers were
    #: validated against a from-scratch recompile of the mutated graph
    #: (bit-identical ranks *and* work counters for the dynamic row);
    #: ``None`` when no mutation pass ran (``mutation_rate=0`` or a
    #: bichromatic workload).
    mutation_consistent: Optional[bool] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view."""
        payload = self.workload.describe()
        if self.parallel_consistent is not None:
            payload["parallel_consistent"] = self.parallel_consistent
        if self.parallel_index_consistent is not None:
            payload["parallel_index_consistent"] = self.parallel_index_consistent
        if self.mutation_consistent is not None:
            payload["mutation_consistent"] = self.mutation_consistent
        payload["algorithms"] = {
            name: timing.as_dict(len(self.workload.queries))
            for name, timing in self.algorithms.items()
        }
        return payload


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
    """The deterministic naive-baseline candidate sample of a workload."""
    rng = random.Random(workload.seed * 65_537 + 0x5A17)
    ordered = sorted(workload.graph.nodes(), key=repr)
    count = min(workload.naive_sample, len(ordered))
    return rng.sample(ordered, count)


def _time_sampled_naive(
    workload: Workload,
    search_graph,
    sample: List[object],
    timing: AlgorithmTiming,
    repetitions: int,
    warmup: int,
) -> None:
    """Time the naive baseline restricted to ``sample`` and extrapolate.

    The sampled runs compute *exact* ranks (for the sampled candidates),
    so per-candidate cost is representative; ``estimated_full_seconds``
    scales the measured batch time to all ``|V| - 1`` candidates.
    """
    membership = set(sample).__contains__
    batches = []
    for round_index in range(warmup + repetitions):
        started = time.perf_counter()
        batch = [
            naive_reverse_k_ranks(
                search_graph, query, workload.k, candidate=membership
            )
            for query in workload.queries
        ]
        elapsed = time.perf_counter() - started
        if round_index >= warmup:
            timing.repetitions.append(elapsed)
            batches = batch
    timing.rank_refinements = sum(
        item.stats.rank_refinements for item in batches
    )
    timing.sampled_candidates = len(sample)
    total_candidates = workload.num_nodes - 1
    scale = total_candidates / max(1, len(sample))
    timing.estimated_full_seconds = timing.mean_seconds * scale
    timing.validated = True
    timing.speedup_vs_naive = 1.0


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


def _normalise_workers(workers) -> List[int]:
    """Normalise the ``workers`` axis to an ordered, deduplicated int list."""
    if isinstance(workers, bool):
        raise WorkloadError(f"workers must be positive integers, got {workers!r}")
    if isinstance(workers, int):
        values = [workers]
    else:
        values = list(workers)
    seen = []
    for value in values:
        if not is_positive_int(value):
            raise WorkloadError(
                f"workers must be positive integers, got {value!r}"
            )
        if value not in seen:
            seen.append(value)
    if not seen:
        raise WorkloadError("workers axis must name at least one value")
    return seen


def _check_parallel_consistency(
    workload: Workload,
    kind: AlgorithmKind,
    reference: List[QueryResult],
    batch: List[QueryResult],
    label: str,
) -> None:
    """Assert a parallel batch reproduces its sequential reference.

    Naive/static/dynamic (and their bichromatic variants) are pure
    functions of the graph, so parallel results must match pair for pair.
    Indexed queries consult worker-local index snapshots that lag the
    sequentially-warmed master, which can change the *identity* of
    entries tied exactly at the boundary rank — never a rank value — so
    they are held to :func:`results_equivalent` instead.
    """
    for expected, actual in zip(reference, batch):
        if kind is AlgorithmKind.INDEXED:
            consistent = results_equivalent(expected, actual)
        else:
            consistent = expected.as_pairs() == actual.as_pairs()
        if not consistent:
            raise CrossValidationError(
                f"parallel {label} diverges from its sequential reference on "
                f"workload {workload.name!r} for query={expected.query!r}: "
                f"sequential={expected.as_pairs()!r} vs "
                f"parallel={actual.as_pairs()!r}"
            )


def run_workload(
    workload: Workload,
    repetitions: int = 3,
    warmup: int = 1,
    validate: bool = True,
    num_hubs: Optional[int] = None,
    index_cache: Optional[object] = None,
    workers=1,
    worker_context: Optional[str] = None,
    trace: bool = False,
    trace_dir: Optional[object] = None,
    mutation_rate: float = 0.0,
) -> WorkloadResult:
    """Time all four algorithms on ``workload``, across the ``workers`` axis.

    Parameters
    ----------
    workload:
        The workload to benchmark.
    repetitions:
        Timed repetitions of the full query batch per algorithm.
    warmup:
        Untimed warmup batches per algorithm (also pre-warms the hub index,
        so indexed timings measure the warm steady state the paper reports).
    validate:
        Cross-validate every algorithm's results against naive in-run; on
        sampled (large-scale) workloads this becomes the spot-check and
        pairwise validation described in the module docstring.  Parallel
        passes are *additionally* checked rank-identical against a
        sequential reference batch regardless of this flag.
    num_hubs:
        Hub count for the indexed algorithm; overrides the workload's
        ``index_params``, defaults to ``max(1, |V| // 8)``.
    index_cache:
        Optional directory for :meth:`HubIndex.load`/:meth:`HubIndex.save`
        warm restarts of the indexed algorithm.
    workers:
        One int or an iterable of ints — the worker-process axis.  The
        first value keys its rows by plain algorithm name; every further
        value adds ``name@wN`` rows (so one report carries the scaling
        curve).  Values above 1 run the timed batches through
        :meth:`~repro.core.engine.ReverseKRanksEngine.query_many`'s
        sharded worker pool, started *outside* the timed windows.
    worker_context:
        Multiprocessing start method for parallel passes (``None`` =
        platform default).
    trace:
        Enable the engine's batch tracer for the timed passes; each row
        records a ``trace_summary`` (top spans by inclusive time) from
        the last timed batch.  Tracing adds span bookkeeping to the
        timed windows, so traced timings are for *attribution*, not for
        comparing against untraced reports.
    trace_dir:
        Optional directory (implies ``trace=True``): the full span tree
        of each row's last timed batch is written there as
        ``{workload}-{row}.trace.json``.
    mutation_rate:
        When positive, run an additional *mixed update/query* pass on a
        private copy of the graph: each timed repetition first applies
        ``max(1, round(mutation_rate * len(queries)))`` seeded graph
        updates through
        :meth:`~repro.core.engine.ReverseKRanksEngine.apply_updates`
        (exercising the CSR delta-overlay and in-place hub-index repair)
        and then runs the query batch.  Rows are keyed ``name@mut`` (and
        ``name@mut@wN`` when the ``workers`` axis has a parallel value,
        proving the worker pool survives updates in place).  After the
        pass the overlay-path answers are validated bit-identically
        against a from-scratch recompile of the final mutated graph —
        the report's ``mutation_consistent`` flag.  Monochromatic
        workloads only (``apply_updates`` rejects bichromatic engines).

    Raises
    ------
    CrossValidationError
        When any algorithm disagrees with the (possibly sampled) naive
        baseline, or a parallel batch is not rank-identical to its
        sequential reference.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if mutation_rate < 0:
        raise WorkloadError(
            f"mutation_rate must be >= 0, got {mutation_rate!r}"
        )
    if trace_dir is not None:
        trace = True
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    if workload.naive_sample is not None and workload.partition is not None:
        raise WorkloadError(
            "sampled naive baselines are monochromatic-only for now"
        )
    workers_axis = _normalise_workers(workers)
    graph = workload.graph
    result = WorkloadResult(workload=workload)
    baseline: Optional[List[QueryResult]] = None
    reference: Optional[List[QueryResult]] = None
    reference_label = ""
    sample: Optional[List[object]] = None
    sample_ranks: Optional[Dict[object, Dict[object, float]]] = None
    #: kind -> sequential batch, the parallel passes' consistency reference.
    serial_batches: Dict[AlgorithmKind, List[QueryResult]] = {}

    # One engine per workload: its version-keyed CSR cache compiles the
    # CompactGraph exactly once, outside every timed window (with warmup=0
    # a per-kind engine would fold the compile into the first repetition).
    engine = ReverseKRanksEngine(graph, partition=workload.partition)
    if trace:
        engine.tracer.enabled = True
    search_graph = engine.compact_graph()
    if workload.naive_sample is not None:
        sample = _sample_candidates(workload)

    try:
        for pass_index, num_workers in enumerate(workers_axis):
            base_pass = pass_index == 0
            for kind in _KIND_ORDER:
                key = (
                    kind.value if base_pass else f"{kind.value}@w{num_workers}"
                )
                timing = AlgorithmTiming(algorithm=key, workers=num_workers)
                result.algorithms[key] = timing

                if (
                    workload.partition is not None
                    and kind is AlgorithmKind.INDEXED
                ):
                    timing.skipped = "indexed algorithm is monochromatic-only"
                    continue

                if kind is AlgorithmKind.NAIVE and sample is not None:
                    if base_pass:
                        _time_sampled_naive(
                            workload, search_graph, sample, timing,
                            repetitions, warmup,
                        )
                    else:
                        # The sampled estimate is a per-candidate
                        # extrapolation; re-timing it through the pool
                        # would only measure IPC on 48 candidates.
                        timing.skipped = (
                            "sampled naive baseline is timed once, at the "
                            "first workers value"
                        )
                    continue

                if kind is AlgorithmKind.INDEXED and engine.index is None:
                    _prepare_index(
                        workload, engine, timing, num_hubs, index_cache,
                        result=result, workers_axis=workers_axis,
                        worker_context=worker_context,
                    )

                run_kwargs = {}
                if num_workers > 1:
                    # Pool startup (spawn can take seconds) happens here,
                    # outside warmup and the timed repetitions.
                    pool = engine.prepare_parallel(num_workers, worker_context)
                    timing.graph_shared = pool.uses_shared_graph
                    timing.startup_payload_bytes = pool.startup_payload_bytes
                    run_kwargs.update(
                        workers=num_workers, worker_context=worker_context
                    )

                for _ in range(warmup):
                    engine.query_many(
                        workload.queries, workload.k, algorithm=kind,
                        **run_kwargs,
                    )

                batch: List[QueryResult] = []
                for _ in range(repetitions):
                    started = time.perf_counter()
                    batch = engine.query_many(
                        workload.queries, workload.k, algorithm=kind,
                        **run_kwargs,
                    )
                    timing.repetitions.append(time.perf_counter() - started)

                if trace and engine.last_trace is not None:
                    # Capture now: the consistency check below may run
                    # another (untimed) batch that would overwrite the
                    # engine's last trace.
                    last_trace = engine.last_trace
                    timing.trace_summary = summarize_trace(last_trace, top=5)
                    if trace_dir is not None:
                        trace_path = trace_dir / (
                            f"{workload.name}-{key.replace('@', '-')}"
                            ".trace.json"
                        )
                        trace_path.write_text(
                            json.dumps(last_trace, indent=2, sort_keys=True)
                            + "\n"
                        )

                timing.rank_refinements = sum(
                    item.stats.rank_refinements for item in batch
                )
                if num_workers > 1 and batch:
                    timing.ipc_bytes_per_query = (
                        engine.last_batch_ipc_bytes / len(batch)
                    )
                if num_workers == 1:
                    serial_batches.setdefault(kind, batch)

                if kind is AlgorithmKind.NAIVE and base_pass:
                    baseline = batch
                    timing.speedup_vs_naive = 1.0
                    timing.validated = True
                else:
                    if validate:
                        if baseline is not None:
                            _validate_batch(workload, baseline, batch, key)
                            timing.validated = True
                        elif sample is not None:
                            if sample_ranks is None:
                                sample_ranks = _exact_sample_ranks(
                                    workload, search_graph, sample
                                )
                            _spot_validate_sampled(
                                workload, batch, sample_ranks, key
                            )
                            if reference is not None:
                                _validate_batch(
                                    workload, reference, batch, key,
                                    baseline_label=reference_label,
                                )
                            reference = batch
                            reference_label = key
                            timing.validated = True
                    naive_timing = result.algorithms.get(
                        AlgorithmKind.NAIVE.value
                    )
                    naive_mean = None
                    if naive_timing is not None:
                        naive_mean = (
                            naive_timing.estimated_full_seconds
                            if naive_timing.estimated_full_seconds is not None
                            else naive_timing.mean_seconds
                        )
                    if naive_mean and timing.mean_seconds:
                        timing.speedup_vs_naive = naive_mean / timing.mean_seconds

                if num_workers > 1:
                    serial = serial_batches.get(kind)
                    if serial is None:
                        # Parallel-only run (e.g. ``--workers 2``): build
                        # the sequential reference untimed.
                        serial = engine.query_many(
                            workload.queries, workload.k, algorithm=kind
                        )
                        serial_batches[kind] = serial
                    _check_parallel_consistency(
                        workload, kind, serial, batch, key
                    )
                    if result.parallel_consistent is None:
                        result.parallel_consistent = True
                    serial_timing = result.algorithms.get(kind.value)
                    if (
                        serial_timing is not None
                        and serial_timing.workers == 1
                        and serial_timing.mean_seconds
                        and timing.mean_seconds
                    ):
                        timing.speedup_vs_serial = (
                            serial_timing.mean_seconds / timing.mean_seconds
                        )
    finally:
        engine.close_pool()

    if mutation_rate:
        _run_mutation_pass(
            workload, result, mutation_rate,
            repetitions=repetitions, warmup=warmup, num_hubs=num_hubs,
            workers_axis=workers_axis, worker_context=worker_context,
        )

    return result


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


def _prepare_index(
    workload: Workload,
    engine: ReverseKRanksEngine,
    timing: AlgorithmTiming,
    num_hubs: Optional[int],
    index_cache: Optional[object],
    result: Optional[WorkloadResult] = None,
    workers_axis: Optional[List[int]] = None,
    worker_context: Optional[str] = None,
) -> None:
    """Build — or load from ``index_cache`` — the engine's hub index.

    When the run has a parallel pass (``workers_axis`` contains a value
    above 1) and the index is actually *built* (not a cache hit), a twin
    engine additionally builds the same index through the sharded worker
    pool and the two exported states are compared byte-for-byte — the
    ``parallel_index_consistent`` flag of the report.  A mismatch raises
    :class:`~repro.errors.CrossValidationError`: merge-order bugs in the
    delta machinery must fail the bench, not silently ship a different
    index.
    """
    build_kwargs = dict(workload.index_params)
    if num_hubs is not None:
        build_kwargs["num_hubs"] = num_hubs
    capacity = int(build_kwargs.pop("capacity", max(workload.k, 16)))

    cache_path: Optional[Path] = None
    if index_cache is not None:
        # The build parameters are part of the cache key: a cached 64-hub
        # index must not silently serve a 128-hub configuration.
        tag = (
            f"h{build_kwargs.get('num_hubs', 'auto')}"
            f"-m{build_kwargs.get('explore_limit', 'full')}"
            f"-k{capacity}"
        )
        cache_path = (
            Path(index_cache)
            / f"{workload.name}-seed{workload.seed}-{tag}.hubindex"
        )

    started = time.perf_counter()
    if cache_path is not None and cache_path.exists():
        try:
            loaded = HubIndex.load(cache_path, workload.graph)
        except (IndexParameterError, OSError, pickle.PickleError, EOFError):
            loaded = None
        if loaded is not None and loaded.capacity >= capacity:
            engine.adopt_index(loaded)
            timing.index_cache = "hit"
            timing.index_build_seconds = time.perf_counter() - started
            return
    index = engine.build_index(capacity=capacity, **build_kwargs)
    timing.index_build_seconds = time.perf_counter() - started
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        index.save(cache_path)
        timing.index_cache = "miss"

    parallel_workers = max(
        (value for value in (workers_axis or []) if value > 1), default=None
    )
    if parallel_workers is not None and result is not None:
        twin = ReverseKRanksEngine(workload.graph)
        try:
            parallel_index = twin.build_index(
                capacity=capacity,
                workers=parallel_workers,
                worker_context=worker_context,
                **build_kwargs,
            )
        finally:
            twin.close_pool()
        if pickle.dumps(parallel_index.export_state()) != pickle.dumps(
            index.export_state()
        ):
            raise CrossValidationError(
                f"hub index built through {parallel_workers} workers is not "
                f"bit-identical to the sequential build on workload "
                f"{workload.name!r}"
            )
        result.parallel_index_consistent = True


def _mutation_ops(rng, graph, count: int) -> List[tuple]:
    """Draw ``count`` effective update ops, shadow-applying them to ``graph``.

    ``graph`` is the pass's *shadow* copy — the mutation pass never touches
    the engine's own graph outside
    :meth:`~repro.core.engine.ReverseKRanksEngine.apply_updates`.  Ops stay
    within the existing node set (node removal forces a recompaction by
    design, and the steady state this pass measures is the overlay path):
    edge removals, brand-new edges and weight decreases — increases are
    no-ops under the graph's min-collapse rule and would only dilute the
    measured update cost.
    """
    ops: List[tuple] = []
    nodes = sorted(graph.nodes(), key=repr)
    attempts = 0
    while len(ops) < count and attempts < count * 25:
        attempts += 1
        edges = list(graph.edges())
        roll = rng.random()
        if edges and roll < 0.35:
            source, target, _ = edges[rng.randrange(len(edges))]
            ops.append(("remove_edge", source, target))
            graph.remove_edge(source, target)
        elif edges and roll < 0.6:
            source, target, weight = edges[rng.randrange(len(edges))]
            new_weight = round(weight * rng.uniform(0.4, 0.9), 6)
            if not 0 < new_weight < weight:
                continue
            ops.append(("add_edge", source, target, new_weight))
            graph.add_edge(source, target, new_weight)
        else:
            source = nodes[rng.randrange(len(nodes))]
            target = nodes[rng.randrange(len(nodes))]
            if source == target or graph.has_edge(source, target):
                continue
            weight = round(rng.uniform(1.0, 5.0), 3)
            ops.append(("add_edge", source, target, weight))
            graph.add_edge(source, target, weight)
    return ops


def _metric_value(engine: ReverseKRanksEngine, name: str, **labels) -> float:
    """Current value of a counter in ``engine``'s private metrics registry."""
    family = engine.registry.get(name)
    if family is None:
        return 0.0
    child = family.labels(**labels) if labels else family
    return child.value


def _run_mutation_pass(
    workload: Workload,
    result: WorkloadResult,
    mutation_rate: float,
    repetitions: int,
    warmup: int,
    num_hubs: Optional[int],
    workers_axis: List[int],
    worker_context: Optional[str],
) -> None:
    """The mixed update/query pass behind ``--mutation-rate``.

    Runs on a private copy of the workload graph with its own engine.
    Each timed repetition applies a seeded batch of updates through
    :meth:`~repro.core.engine.ReverseKRanksEngine.apply_updates` and then
    the full query batch, so a row's wall-clock is the true mixed cost:
    overlay build + hub-index repair + pool sync + queries.  Three things
    are verified *in-run* (any failure raises
    :class:`~repro.errors.CrossValidationError`):

    * the :class:`UpdateReport` tallies match the :mod:`repro.obs`
      counter deltas (``repro_graph_updates_total``,
      ``repro_csr_recompactions_total``, ``repro_pool_graph_syncs_total``)
      — the rows' counters are real, not self-reported;
    * when the pass has a parallel row and no batch forced a
      recompaction, the worker PIDs are unchanged at the end — updates
      were absorbed by live workers, never by a pool restart;
    * the final overlay-path answers are bit-identical (ranks *and* work
      counters for the dynamic row; rank values for the indexed row,
      whose retained learned entries may legitimately re-order boundary
      ties) to a fresh engine recompiled from scratch over an
      identically-mutated graph — ``mutation_consistent``.
    """
    kinds = (AlgorithmKind.DYNAMIC, AlgorithmKind.INDEXED)
    if workload.partition is not None:
        for kind in kinds:
            key = f"{kind.value}@mut"
            result.algorithms[key] = AlgorithmTiming(
                algorithm=key,
                skipped="mutation pass is monochromatic-only",
            )
        return

    ops_per_batch = max(1, round(mutation_rate * len(workload.queries)))
    shadow = workload.graph.copy()
    graph = workload.graph.copy()
    rng = random.Random(workload.seed * 8191 + 0xD17A)
    queries = workload.queries

    build_kwargs = dict(workload.index_params)
    if num_hubs is not None:
        build_kwargs["num_hubs"] = num_hubs
    capacity = int(build_kwargs.pop("capacity", max(workload.k, 16)))
    parallel_workers = max(
        (value for value in workers_axis if value > 1), default=None
    )

    engine = ReverseKRanksEngine(graph)
    try:
        engine.build_index(capacity=capacity, **build_kwargs)
        hubs = engine.index.hubs
        pids_before = None
        if parallel_workers is not None:
            pool = engine.prepare_parallel(parallel_workers, worker_context)
            pids_before = sorted(
                process.pid for process in pool._processes
            )

        any_recompacted = False
        mutation_rows: List[AlgorithmTiming] = []
        workers_values = [1] + (
            [parallel_workers] if parallel_workers is not None else []
        )
        for kind in kinds:
            for num_workers in workers_values:
                key = f"{kind.value}@mut" + (
                    "" if num_workers == 1 else f"@w{num_workers}"
                )
                timing = AlgorithmTiming(algorithm=key, workers=num_workers)
                result.algorithms[key] = timing
                mutation_rows.append(timing)
                run_kwargs = {}
                if num_workers > 1:
                    run_kwargs.update(
                        workers=num_workers, worker_context=worker_context
                    )

                applied_before = _metric_value(
                    engine, "repro_graph_updates_total", result="applied"
                )
                recompactions_before = _metric_value(
                    engine, "repro_csr_recompactions_total"
                )
                syncs_before = _metric_value(
                    engine, "repro_pool_graph_syncs_total"
                )

                for _ in range(warmup):
                    engine.query_many(
                        queries, workload.k, algorithm=kind, **run_kwargs
                    )
                applied = recompacted = synced = 0
                batch: List[QueryResult] = []
                for _ in range(repetitions):
                    ops = _mutation_ops(rng, shadow, ops_per_batch)
                    started = time.perf_counter()
                    report = engine.apply_updates(ops)
                    batch = engine.query_many(
                        queries, workload.k, algorithm=kind, **run_kwargs
                    )
                    timing.repetitions.append(time.perf_counter() - started)
                    applied += report.applied
                    recompacted += int(report.recompacted)
                    synced += int(report.pool_synced)
                any_recompacted = any_recompacted or recompacted > 0

                recompaction_delta = int(
                    _metric_value(engine, "repro_csr_recompactions_total")
                    - recompactions_before
                )
                sync_delta = int(
                    _metric_value(engine, "repro_pool_graph_syncs_total")
                    - syncs_before
                )
                applied_delta = int(
                    _metric_value(
                        engine, "repro_graph_updates_total", result="applied"
                    )
                    - applied_before
                )
                if (
                    applied_delta != applied
                    or recompaction_delta != recompacted
                    or sync_delta != synced
                ):
                    raise CrossValidationError(
                        f"mutation row {key!r} on workload {workload.name!r}: "
                        f"UpdateReport tallies (applied={applied}, "
                        f"recompacted={recompacted}, synced={synced}) "
                        f"disagree with repro.obs counter deltas "
                        f"(applied={applied_delta}, "
                        f"recompacted={recompaction_delta}, "
                        f"synced={sync_delta})"
                    )
                timing.updates_applied = applied
                timing.csr_recompactions = recompaction_delta
                timing.pool_graph_syncs = sync_delta
                timing.rank_refinements = sum(
                    item.stats.rank_refinements for item in batch
                )

        if (
            pids_before is not None
            and not any_recompacted
            and engine._pool is not None
        ):
            pids_after = sorted(
                process.pid for process in engine._pool._processes
            )
            if pids_after != pids_before:
                raise CrossValidationError(
                    f"mutation pass on workload {workload.name!r} restarted "
                    f"the worker pool without a recompaction: PIDs "
                    f"{pids_before} -> {pids_after}"
                )

        _validate_mutation_pass(
            workload, result, engine, shadow, queries, hubs, capacity,
            build_kwargs.get("explore_limit"),
        )
        # The pass-level recompile validation covers every row that ran
        # (they all answered from the same overlay/repair lineage).
        for timing in mutation_rows:
            timing.validated = True
    finally:
        engine.close_pool()


def _validate_mutation_pass(
    workload: Workload,
    result: WorkloadResult,
    engine: ReverseKRanksEngine,
    shadow,
    queries,
    hubs,
    capacity: int,
    explore_limit,
) -> None:
    """Bit-identity of the overlay path against a from-scratch recompile.

    ``shadow`` received exactly the op sequence the engine absorbed
    through ``apply_updates``, in the same order, so a fresh engine over
    it compiles the CSR a cold restart would produce.  Dynamic answers
    must match with identical ranks *and* identical work counters
    (``QueryStats`` minus wall-clock); the repaired index is rebuilt over
    the same hub set and must produce identical rank values.
    """
    fresh = ReverseKRanksEngine(shadow)
    backend = fresh.compact_graph()
    expected = fresh.query_many(
        queries, workload.k, algorithm=AlgorithmKind.DYNAMIC
    )
    actual = engine.query_many(
        queries, workload.k, algorithm=AlgorithmKind.DYNAMIC
    )
    for want, got in zip(expected, actual):
        want_stats = want.stats.as_dict()
        got_stats = got.stats.as_dict()
        want_stats.pop("elapsed_seconds", None)
        got_stats.pop("elapsed_seconds", None)
        if want.as_pairs() != got.as_pairs() or want_stats != got_stats:
            raise CrossValidationError(
                f"overlay path diverges from a from-scratch recompile on "
                f"workload {workload.name!r} for query={want.query!r}: "
                f"recompiled={want.as_pairs()!r}/{want_stats!r} vs "
                f"overlay={got.as_pairs()!r}/{got_stats!r}"
            )
    rebuilt = HubIndex.build(
        shadow, capacity=capacity, hubs=hubs, explore_limit=explore_limit,
        backend=backend,
    )
    fresh.adopt_index(rebuilt)
    expected_indexed = fresh.query_many(
        queries, workload.k, algorithm=AlgorithmKind.INDEXED
    )
    actual_indexed = engine.query_many(
        queries, workload.k, algorithm=AlgorithmKind.INDEXED
    )
    for want, got in zip(expected_indexed, actual_indexed):
        if not results_equivalent(want, got) or (
            want.rank_values() != got.rank_values()
        ):
            raise CrossValidationError(
                f"repaired hub index diverges from a same-hub rebuild on "
                f"workload {workload.name!r} for query={want.query!r}: "
                f"rebuilt={want.as_pairs()!r} vs repaired={got.as_pairs()!r}"
            )
    result.mutation_consistent = True


def run_suite(
    workloads: List[Workload],
    repetitions: int = 3,
    warmup: int = 1,
    validate: bool = True,
    index_cache: Optional[object] = None,
    workers=1,
    worker_context: Optional[str] = None,
    trace: bool = False,
    trace_dir: Optional[object] = None,
    mutation_rate: float = 0.0,
    progress=None,
) -> List[WorkloadResult]:
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
        results.append(
            run_workload(
                workload,
                repetitions=repetitions,
                warmup=warmup,
                validate=validate,
                index_cache=index_cache,
                workers=workers,
                worker_context=worker_context,
                trace=trace,
                trace_dir=trace_dir,
                mutation_rate=mutation_rate,
            )
        )
    return results
