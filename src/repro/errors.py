"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by the package with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations

import math


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Base class for errors related to graph construction or access."""


class NodeNotFoundError(GraphError, KeyError):
    """Raised when a node identifier is not present in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """Raised when an edge is not present in the graph."""

    def __init__(self, source: object, target: object) -> None:
        super().__init__(f"edge ({source!r}, {target!r}) is not in the graph")
        self.source = source
        self.target = target


class DuplicateNodeError(GraphError, ValueError):
    """Raised when adding a node identifier that already exists."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} already exists in the graph")
        self.node = node


class InvalidWeightError(GraphError, ValueError):
    """Raised when an edge weight is negative, NaN, or not a number."""

    def __init__(self, weight: object) -> None:
        super().__init__(
            f"edge weight {weight!r} is invalid: weights must be finite and >= 0"
        )
        self.weight = weight


class GraphValidationError(GraphError, ValueError):
    """Raised when a graph fails a structural validation check."""


class QueryError(ReproError):
    """Base class for errors raised while evaluating queries."""


class InvalidQueryNodeError(QueryError, KeyError):
    """Raised when the query node does not exist in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"query node {node!r} is not in the graph")
        self.node = node


class InvalidKError(QueryError, ValueError):
    """Raised when the requested result size ``k`` is invalid.

    Either ``k`` is not a positive integer, or (at the engine level) it
    exceeds the number of candidate nodes that could possibly be returned.
    """

    def __init__(self, k: object, reason: str = "") -> None:
        super().__init__(reason or f"k must be a positive integer, got {k!r}")
        self.k = k


def check_positive_k(k: object) -> None:
    """Raise :class:`InvalidKError` unless ``k`` is a positive ``int``.

    ``bool`` is rejected explicitly (it subclasses ``int``).  Shared by the
    engine facade and the low-level algorithm entry points so the layers
    cannot drift apart on what a legal ``k`` is.
    """
    if not is_positive_int(k):
        raise InvalidKError(k)


def is_positive_int(value: object) -> bool:
    """Whether ``value`` is a positive ``int`` (``bool`` excluded).

    The shared predicate behind every "must be a positive integer"
    validation — ``k`` values, worker counts, shard counts — so the
    definition cannot drift between layers.
    """
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def is_positive_finite(value: object) -> bool:
    """Whether ``value`` is a finite ``int``/``float`` above zero.

    The predicate behind every timeout check: ``0``, negatives, ``nan``
    (which compares false with everything, so it would mean "no
    deadline") and ``inf`` are all refused, as is ``bool``.
    """
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


class IndexError_(ReproError):
    """Base class for hub-index related errors.

    The trailing underscore avoids shadowing the builtin :class:`IndexError`.
    """


class IndexParameterError(IndexError_, ValueError):
    """Raised when hub-index parameters (H, M, K) are inconsistent."""


class IndexCapacityError(IndexError_, ValueError):
    """Raised when a query requests ``k`` larger than the index capacity ``K``."""

    def __init__(self, k: int, capacity: int) -> None:
        super().__init__(
            f"requested k={k} exceeds the index capacity K={capacity}; "
            "rebuild the index with a larger K or query without the index"
        )
        self.k = k
        self.capacity = capacity


class BichromaticError(QueryError, ValueError):
    """Raised when bichromatic query constraints are violated."""


class CrossValidationError(ReproError, AssertionError):
    """Raised when an optimised algorithm disagrees with the naive baseline."""


class ParallelExecutionError(ReproError, RuntimeError):
    """Raised when sharded multiprocess query execution fails.

    Covers pool misuse (bad ``workers`` values, dispatch after shutdown,
    incompatible backends) and failures *reported* by a worker process
    (an exception escaped a shard; the original traceback is embedded in
    the message).  A worker that dies without reporting anything raises
    the :class:`WorkerCrashError` subclass instead.
    """


class WorkerCrashError(ParallelExecutionError):
    """Raised when a worker process died without reporting a result.

    The pool distinguishes a worker that *raised* (surfaced as
    :class:`ParallelExecutionError` with the remote traceback) from one
    that vanished — killed by a signal, the OOM reaper, or an interpreter
    abort.  ``worker_id`` and ``exitcode`` identify the casualty;
    ``positions`` (when the crash happened mid-batch) names the batch
    positions whose shards the dead worker was still holding, so callers
    know exactly which queries went unanswered.
    """

    def __init__(
        self,
        worker_id: int,
        exitcode: object,
        detail: str = "",
        positions=None,
    ) -> None:
        message = (
            f"worker {worker_id} crashed (exitcode {exitcode!r}) "
            "before returning its shard"
        )
        if positions is not None:
            message = (
                f"{message} (batch positions {sorted(positions)!r} were "
                "still assigned to it)"
            )
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.worker_id = worker_id
        self.exitcode = exitcode
        self.positions = None if positions is None else tuple(positions)


class WorkerTimeoutError(ParallelExecutionError):
    """Raised when a batch blew its deadline with workers still holding shards.

    ``run_batch(timeout=...)`` polls the result queue against a
    monotonic deadline instead of forever; when the deadline passes, the
    pool kills the live-but-stuck workers (a hung worker would otherwise
    pin its shard until process exit), respawns them best-effort so the
    pool stays usable, and raises this.  ``worker_ids`` names the
    workers that were killed; ``positions`` the batch positions whose
    shards never came back.
    """

    def __init__(
        self,
        timeout: float,
        worker_ids=(),
        positions=None,
        detail: str = "",
    ) -> None:
        message = (
            f"parallel batch missed its {timeout:.3f}s deadline; workers "
            f"{sorted(worker_ids)!r} were still holding shards and were killed"
        )
        if positions is not None:
            message = (
                f"{message} (batch positions {sorted(positions)!r} went "
                "unanswered)"
            )
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.timeout = timeout
        self.worker_ids = tuple(worker_ids)
        self.positions = None if positions is None else tuple(positions)


class FailpointError(ReproError, OSError):
    """Raised by an armed ``error``-action failpoint (:mod:`repro.faults`).

    Subclasses :class:`OSError` so injected I/O faults (journal fsync
    failures, ENOSPC-style write errors) travel through code paths
    exactly the way the real errno-carrying exceptions would.
    """

    def __init__(self, name: str, detail: str = "") -> None:
        message = f"failpoint {name!r} injected a fault"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.failpoint = name


class ServeError(ReproError):
    """Base class for errors raised by the :mod:`repro.serve` layer."""


class ServeConnectionError(ServeError, ConnectionError):
    """Raised client-side when the connection failed mid-request.

    Wraps the bare :class:`OSError` a dead socket produces into the
    repro hierarchy (it still *is* a :class:`ConnectionError`, so
    existing ``except OSError`` call sites keep working).  The request
    may or may not have reached the server — queries are idempotent
    reads, so :class:`~repro.serve.client.ServeClient`'s opt-in
    ``retries=`` knob reconnects and retries on it.
    """


class JournalCorruptionError(ServeError, ValueError):
    """Raised when a learned-index journal is corrupted beyond its tail.

    A *torn tail* — the one partially-written record a kill -9 mid-append
    can leave — is healed silently (the journal truncates back to its
    last complete record).  This error means something worse: a bad
    header, a CRC-mismatched record *followed by more data*, or an
    undecodable payload behind a valid CRC — corruption that replaying
    past would silently drop durable learning.
    """


class ProtocolError(ServeError, ValueError):
    """Raised when a serve-protocol frame is malformed or oversized."""


class ServerOverloadedError(ServeError, RuntimeError):
    """Raised client-side when the server sheds the request (backpressure).

    The server's admission queue was full; the request was rejected
    *before* any work was done, so retrying after a backoff is safe.
    """


class DatasetError(ReproError):
    """Raised when a synthetic dataset cannot be generated or loaded."""


class WorkloadError(ReproError):
    """Raised when an experiment workload cannot be constructed."""
