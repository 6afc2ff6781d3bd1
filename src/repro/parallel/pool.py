"""The persistent multiprocess worker pool (parent side).

A :class:`WorkerPool` owns ``N`` long-lived worker processes around one
:class:`~repro.graph.csr.CompactGraph` compilation (plus, optionally, a
bichromatic facility set and a replica of the coordinator's hub index).
Batches are then dispatched shard-wise — the payload per batch is just
the query identifiers.  Each shard comes back as one pickle of its
results, decoded against the pool's own plan as it arrives
(:class:`~repro.parallel.codec.ShardResultCodec`), and the batch is
reassembled deterministically by :mod:`repro.parallel.merge`.

Index replicas
--------------
Each worker starts from a :meth:`~repro.core.hub_index.HubIndex.export_state`
snapshot of the coordinator's (master) index and is then kept equal to
it by deltas only.  Whatever one worker learns in a query
shard, and whatever rows or row tails it settles in a sharded repair
(:meth:`WorkerPool.update_graph`), reaches the master through the
batch result; the pool queues it for every *other* worker and ships it
with that worker's next task (never back to the worker that made it:
exploration counts add).  What the master learns itself — the indexed
queries it answers in-process — the coordinator hands to
:meth:`WorkerPool.forward`, which queues it for every worker.  A full
snapshot ships only when a worker process starts: at pool start, and
when a worker is respawned (exported from the master at that moment,
its queued deltas dropped).  A pool cannot adopt another index: a
coordinator that replaces its index, or whose batch raised (its workers
may have learned what the master never merged), closes the pool and
starts a new one.  Once its queued deltas are delivered, every
replica equals the master (:meth:`WorkerPool.replica_digests`), and a
worker never knows more than the master, which is what keeps the
master's affected-source test in
:meth:`~repro.core.hub_index.HubIndex.repair` sound for the replicas.
A sharded build (:meth:`WorkerPool.explore_hubs`) explores on
throwaway indexes and leaves the replicas alone.

Graph transport
---------------
The pool publishes the compilation's frozen CSR buffers into a
:mod:`multiprocessing.shared_memory` segment
(:func:`~repro.graph.shm.share_compact_graph`) and ships workers only the
tiny :class:`~repro.graph.shm.SharedGraphHandle`: each worker *maps* the
graph (digest-verified attach, near-zero startup payload, O(1) extra RSS
per worker) instead of unpickling a private copy — the difference between
"2 workers" and "2x the graph in RAM" at the huge scale tier.  Only when
creating the segment raises :class:`OSError` (no writable shared memory
on the platform) do workers receive pickled copies instead.  The segment
is owned by the pool and unlinked on *every* exit path: normal
:meth:`close`, worker crash, context-manager exception and the
``__del__`` safety net.  The pool takes the coordinator's compilation
as it is and publishes its frozen base; graph updates never republish
it.  A worker that starts is seeded with the overlay's
:meth:`~repro.graph.overlay.OverlayGraph.overlay_delta` against the
base (the whole side-table), and each update after that ships only the
rows it lacks (:meth:`WorkerPool.update_graph`).

Lifecycle guarantees
--------------------
* **Start-method safety** — the pool works under ``fork``, ``spawn`` and
  ``forkserver`` (pass ``context=``; ``None`` uses the platform default).
  The worker entry point lives in the importable
  :mod:`repro.parallel.worker` module, and the pool temporarily extends
  ``PYTHONPATH`` with :mod:`repro`'s source root around process creation
  so spawned children can import the package even when only the parent's
  ``sys.path`` knew about it (the pytest case).
* **Startup barrier** — the constructor blocks until every worker reports
  ``ready``; import errors and corrupted payloads surface immediately as
  typed errors instead of hanging the first batch.
* **Crash surfacing and self-healing** — a worker that raises ships its
  remote traceback back and the batch fails with
  :class:`~repro.errors.ParallelExecutionError`; a worker that *dies*
  (signal, OOM kill, interpreter abort) is detected by liveness polling.
  :meth:`run_batch` heals from deaths in place: the dead slot is
  respawned from the current state (the base, the overlay the workers
  hold and a fresh export of the master hub index, not the
  construction-time ones) and the shards the
  casualty was holding are re-dispatched, up to ``crash_retries`` deaths
  per batch — only then does the batch fail with
  :class:`~repro.errors.WorkerCrashError` naming the unanswered
  positions.  Each respawn bumps the slot's *generation*, which salts
  the worker's failpoint RNG streams (:mod:`repro.faults`), so an
  injected crash schedule does not kill every replacement at the same
  task.
* **Crash-isolated result channels** — every worker writes results to
  its *own* queue rather than one shared queue.  This is load-bearing
  for healing from SIGKILL: a worker killed while its queue feeder
  thread holds the queue's write lock leaves that (cross-process) lock
  held forever, and on a shared queue that deadlocks every future
  writer — including the freshly respawned replacement, whose ``ready``
  message can then never be delivered.  With per-worker queues the
  poisoned channel dies with its worker: :meth:`_respawn` discards both
  of the casualty's queues and gives the replacement fresh ones.  A
  respawn is additionally bounded by ``respawn_timeout`` (a replacement
  that cannot report ready is killed and surfaced as a crash) so a
  wedged replacement can never stall a batch for the full
  ``start_timeout``.
* **Batch deadline** — ``run_batch(timeout=...)`` bounds the wall-clock
  wait; when it expires, the workers still holding shards are killed
  (terminate, then SIGKILL), respawned best-effort so the pool stays
  usable, and the batch raises
  :class:`~repro.errors.WorkerTimeoutError` instead of polling forever
  behind a hung child.
* **Graceful shutdown** — :meth:`close` sends each worker the shutdown
  sentinel, joins with a timeout, and only then escalates to
  ``terminate``.  The pool is a context manager; ``close`` is idempotent.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import multiprocessing.connection
import os
import queue as queue_module
import time
from typing import Dict, List, Optional

from repro import faults
from repro.core.config import AlgorithmKind
from repro.errors import (
    ParallelExecutionError,
    WorkerCrashError,
    WorkerTimeoutError,
    is_positive_int,
)
from repro.graph.shm import share_compact_graph
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, get_registry
from repro.parallel.codec import ShardResultCodec
from repro.parallel.merge import ParallelBatchResult, ShardOutput, merge_shard_outputs
from repro.parallel.planner import ShardPlan, chunk_evenly
from repro.parallel.worker import build_init_payload, worker_main

__all__ = ["WorkerPool", "start_context"]

#: Seconds between liveness polls while waiting on worker messages.
_POLL_SECONDS = 0.1


class _DeadlineExceeded(Exception):
    """Internal: :meth:`WorkerPool._receive` hit the batch deadline."""


def start_context(context: Optional[str]):
    """The multiprocessing context for start method ``context``.

    ``None`` means the platform default.  Raises
    :class:`~repro.errors.ParallelExecutionError` for an unknown method.
    """
    try:
        return multiprocessing.get_context(context)
    except ValueError:
        raise ParallelExecutionError(
            f"unknown multiprocessing start method {context!r}; available: "
            f"{multiprocessing.get_all_start_methods()}"
        ) from None


@contextlib.contextmanager
def _child_spawn_env():
    """Environment for ``Process.start()`` (restores every override after).

    Two concerns, one scope:

    * ``spawn``/``forkserver`` children start a fresh interpreter that
      only sees ``PYTHONPATH`` — not the parent's ``sys.path``
      manipulations (pytest's ``pythonpath = ["src"]``, editable
      installs resolved at runtime, ...).  Prepending the package's
      source root closes that gap.
    * An armed :mod:`repro.faults` registry exports its
      ``REPRO_FAILPOINTS`` / ``REPRO_FAILPOINTS_SEED`` configuration so
      chaos schedules follow workers into fresh interpreters too
      (``fork`` children inherit the registry object directly; the
      redundant export is harmless).

    Every mutation is reverted before control returns, so nothing else
    observes it.
    """
    import repro

    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    overrides = {}
    existing_path = os.environ.get("PYTHONPATH")
    parts = existing_path.split(os.pathsep) if existing_path else []
    if source_root not in parts:
        overrides["PYTHONPATH"] = os.pathsep.join([source_root] + parts)
    overrides.update(faults.env_exports())
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, old in saved.items():
            if old is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = old


class WorkerPool:
    """``N`` persistent worker processes around one graph compilation.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.csr.CompactGraph` compilation, a plain one
        or an :class:`~repro.graph.overlay.OverlayGraph`.  Its frozen
        base is shipped to workers over shared memory, or pickled where
        that is unavailable (see the module docstring), and an overlay's
        rows ride along as a delta against it.
    workers:
        Number of worker processes (>= 1).
    index:
        Optional master :class:`~repro.core.hub_index.HubIndex`; each
        worker starts from an
        :meth:`~repro.core.hub_index.HubIndex.export_state` snapshot of
        it and reports its learning back per batch.  The pool keeps the
        reference so a respawned worker starts from the master's state
        at that moment (see *Index replicas* in the module docstring);
        it never adopts another index.
    facilities:
        Optional bichromatic facility (V2) node set; workers rebuild the
        partition from it.
    context:
        Start method: ``"fork"``, ``"spawn"``, ``"forkserver"`` or
        ``None`` for the platform default.
    start_timeout:
        Seconds to wait for all workers to report ready at construction.
    respawn_timeout:
        Seconds a *respawned* worker gets to report ready before it is
        killed and the respawn fails (surfacing as a crash the caller's
        retry machinery handles).  Much shorter than ``start_timeout``
        by default: a replacement starts from a warmed payload, so a
        slot that is not ready quickly is wedged, and waiting the full
        startup budget would stall the in-flight batch.
    crash_retries:
        Number of worker deaths :meth:`run_batch` heals from (respawn +
        re-dispatch) before giving up on a batch; ``0`` restores the
        fail-fast behaviour.
    """

    def __init__(
        self,
        graph,
        workers: int,
        index=None,
        facilities=None,
        context: Optional[str] = None,
        start_timeout: float = 60.0,
        respawn_timeout: float = 10.0,
        crash_retries: int = 2,
        registry=None,
    ) -> None:
        # Attributes close() touches come first: a constructor failure at
        # any later point must leave close() safe to run.
        self._closed = False
        self._graph_owner = None
        self._processes: List[multiprocessing.Process] = []
        self._task_queues = []
        self._result_queues = []
        if not isinstance(crash_retries, int) or isinstance(crash_retries, bool) or crash_retries < 0:
            raise ParallelExecutionError(
                f"crash_retries must be a non-negative integer, got {crash_retries!r}"
            )
        if not is_positive_int(workers):
            raise ParallelExecutionError(
                f"workers must be a positive integer, got {workers!r}"
            )
        if not getattr(graph, "is_compact", False):
            raise ParallelExecutionError(
                "WorkerPool requires a CompactGraph compilation (its frozen "
                "array buffers are what make shipping the graph cheap); "
                "compile with CompactGraph.from_graph() first"
            )
        ctx = start_context(context)

        self._num_workers = workers
        self._start_method = ctx.get_start_method()
        self._job_ids = itertools.count()
        # The frozen base compilation: the only graph the workers' startup
        # transports (shared segment or pickled copy) ever carry.
        self._base = graph.base if graph.is_overlay else graph
        # What the workers hold: a worker that starts is seeded with its
        # rows and a fresh export of ``index``.
        self._graph = graph
        self._ctx = ctx
        self._index = index
        # Per worker: learning and repair rows other workers produced
        # that this one has not received yet; shipped with its next task.
        self._pending: List[list] = [[] for _ in range(workers)]
        self._facilities = facilities
        self._start_timeout = start_timeout
        self._respawn_timeout = respawn_timeout
        self._crash_retries = crash_retries
        self._generations = [0] * workers
        self._crash_count = 0
        self._respawn_count = 0
        self._timeout_count = 0
        # Metrics land in the injected registry (the engine shares its own
        # so pool counters survive pool rebuilds) or the process-global
        # default for standalone pools.  Event-time increments here are
        # the single source of truth for crash/respawn/timeout totals.
        self._registry = registry if registry is not None else get_registry()
        metrics = self._registry
        self._m_crashes = metrics.counter(
            "repro_worker_crashes_total",
            "Worker processes that died mid-batch or failed to respawn.",
        )
        self._m_respawns = metrics.counter(
            "repro_worker_respawns_total",
            "Worker processes respawned in place after a crash or stall.",
        )
        self._m_timeouts = metrics.counter(
            "repro_worker_timeouts_total",
            "Batches that blew their deadline and had stuck workers killed.",
        )
        self._m_batches = metrics.counter(
            "repro_pool_batches_total",
            "Parallel batches the pool completed successfully.",
        )
        self._m_batch_seconds = metrics.histogram(
            "repro_pool_batch_seconds",
            "Wall-clock seconds per pool batch (dispatch to merge).",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        ipc = metrics.counter(
            "repro_ipc_bytes_total",
            "Bytes crossing the worker IPC boundary, by direction "
            "(startup init payloads vs pickled shard result replies).",
            labels=("direction",),
        )
        self._m_ipc_startup = ipc.labels(direction="startup")
        self._m_ipc_result = ipc.labels(direction="result")
        index_syncs = metrics.counter(
            "repro_pool_index_syncs_total",
            "Hub-index syncs shipped to pool workers, by kind: full "
            "snapshots (pool start, respawn) vs deltas (sharded repairs).",
            labels=("kind",),
        )
        self._m_index_snapshots = index_syncs.labels(kind="snapshot")
        self._m_index_deltas = index_syncs.labels(kind="delta")
        try:
            try:
                self._graph_owner = share_compact_graph(self._base)
            except OSError:
                # No (writable) shared memory on this platform: fall
                # back to the pickled transport.
                self._graph_owner = None
            init_bytes = self._current_init_bytes()
            self._startup_payload_bytes = len(init_bytes)
            self._m_ipc_startup.inc(len(init_bytes) * workers)
            # One result queue PER worker: crash isolation (see the
            # module docstring) — a SIGKILLed worker can only poison its
            # own channel, which _respawn discards with the slot.
            self._result_queues = [ctx.Queue() for _ in range(workers)]
            self._task_queues = [ctx.Queue() for _ in range(workers)]
            with _child_spawn_env():
                for worker_id in range(workers):
                    self._processes.append(
                        self._spawn_process(worker_id, init_bytes)
                    )
            self._await_ready(start_timeout)
        except BaseException:
            self.close(timeout=2.0)
            raise
        if index is not None:
            self._m_index_snapshots.inc()

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        """Number of worker processes."""
        return self._num_workers

    @property
    def start_method(self) -> str:
        """The multiprocessing start method the workers were created with."""
        return self._start_method

    @property
    def graph(self):
        """The compilation the workers hold: the base or an overlay of it."""
        return self._graph

    @property
    def index(self):
        """The master hub index the workers' replicas mirror, or ``None``."""
        return self._index

    @property
    def uses_shared_graph(self) -> bool:
        """Whether workers map the graph from shared memory (vs pickled)."""
        return self._graph_owner is not None

    @property
    def shared_segment_name(self) -> Optional[str]:
        """The shared graph segment's name, or ``None`` in pickled mode."""
        owner = self._graph_owner
        return owner.segment_name if owner is not None else None

    @property
    def startup_payload_bytes(self) -> int:
        """Bytes of init payload pickled per worker at startup.

        In shared-graph mode this is just the handle + header (a few
        hundred bytes, independent of graph size); in pickled mode it
        includes the full CSR buffers.
        """
        return self._startup_payload_bytes

    @property
    def is_closed(self) -> bool:
        """Whether the pool has been shut down."""
        return self._closed

    @property
    def worker_pids(self) -> List[Optional[int]]:
        """The workers' process ids (``None`` before start, after close)."""
        return [process.pid for process in self._processes]

    @property
    def crash_count(self) -> int:
        """Worker deaths observed over the pool's lifetime."""
        return self._crash_count

    @property
    def respawn_count(self) -> int:
        """Workers respawned over the pool's lifetime."""
        return self._respawn_count

    @property
    def timeout_count(self) -> int:
        """Batches that blew their deadline over the pool's lifetime."""
        return self._timeout_count

    def health(self) -> Dict[str, object]:
        """A snapshot of pool liveness and self-healing counters.

        ``alive`` counts workers currently running; ``generations`` is
        the per-slot respawn count (all zeros for a pool that never lost
        a worker).  Safe to call on a closed pool.
        """
        return {
            "workers": self._num_workers,
            "alive": sum(1 for process in self._processes if process.is_alive()),
            "crashes": self._crash_count,
            "respawns": self._respawn_count,
            "timeouts": self._timeout_count,
            "generations": list(self._generations),
            "start_method": self._start_method,
            "shared_graph": self.uses_shared_graph,
            "closed": self._closed,
        }

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc_value, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "closed" if self._closed else "open"
        return (
            f"<WorkerPool {state} workers={self._num_workers} "
            f"start_method={self._start_method!r} "
            f"index={self._index is not None}>"
        )

    # ------------------------------------------------------------------
    def run_batch(
        self,
        plan: ShardPlan,
        k: int,
        algorithm,
        bounds=None,
        timeout: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> ParallelBatchResult:
        """Execute one planned batch across the workers, healing crashes.

        Shard ``i`` of the plan runs on worker ``i mod num_workers`` (the
        identity mapping when the plan was built for this pool's worker
        count); workers echo the shard index back, so attribution never
        depends on arrival order — which is what makes re-dispatching a
        dead worker's shards to its replacement safe.  Each reply is
        decoded as it arrives, after stale and duplicate replies are
        dropped, and checked against the plan's shard; its bytes are
        :attr:`ParallelBatchResult.ipc_bytes`.

        When the workers hold an index and the algorithm is indexed,
        each shard returns what it learned; that learning is also queued
        for the other workers (see *Index replicas* in the module
        docstring), and the caller merges
        :attr:`ParallelBatchResult.deltas` into the master.  A batch that
        raises may leave workers knowing more than the master, so the
        caller must not rely on the replicas again: close the pool.

        ``timeout`` bounds the batch in wall-clock seconds; ``None``
        waits indefinitely (liveness-polled, so crashes still surface).
        The batch absorbs up to the pool's ``crash_retries`` worker
        deaths (respawn + re-dispatch) before failing.

        ``trace_id`` (propagated in every task tuple) asks the workers to
        record their own span trees for this batch under that id; the
        finished trees come back in the result payloads and are returned
        on :attr:`ParallelBatchResult.worker_traces` in shard order.
        ``None`` — the default — keeps the worker-side hot path
        allocation-free.

        Raises
        ------
        ParallelExecutionError
            When the pool is closed, a worker reported an exception (the
            remote traceback is embedded in the message) — worker
            *exceptions* are deterministic, so they are never retried —
            or a reply does not decode to its shard's results.
        WorkerCrashError
            When worker deaths exceeded ``crash_retries``, or a
            replacement worker could not be started; ``positions`` names
            the batch positions that went unanswered.
        WorkerTimeoutError
            When ``timeout`` expired with shards still outstanding; the
            stuck workers are killed (and respawned best-effort) first.
        """
        if self._closed:
            raise ParallelExecutionError(
                "cannot run a batch on a closed WorkerPool"
            )
        kind = AlgorithmKind(algorithm)
        crash_retries = self._crash_retries
        job_id = next(self._job_ids)
        shards = plan.non_empty()
        shard_by_index = {shard.index: shard for shard in shards}
        deadline = None if timeout is None else time.monotonic() + timeout
        batch_started = time.perf_counter()

        def dispatch(shard) -> None:
            worker_id = shard.index % self._num_workers
            self._task_queues[worker_id].put(
                (
                    "query",
                    job_id,
                    self._take_pending(worker_id),
                    shard.index,
                    shard.positions,
                    shard.queries,
                    k,
                    kind.value,
                    bounds,
                    trace_id,
                )
            )

        def lost_positions(shard_indexes) -> tuple:
            return tuple(
                position
                for shard_index in sorted(shard_indexes)
                for position in shard_by_index[shard_index].positions
            )

        for shard in shards:
            dispatch(shard)
        outputs: List[ShardOutput] = []
        # shard index -> (worker id, its generation) that answered it
        producers: Dict[int, tuple] = {}
        outstanding = set(shard_by_index)
        crashes = 0
        ipc_bytes = 0
        while outstanding:
            try:
                message_kind, worker_id, message_job, payload = self._receive(
                    deadline
                )
            except WorkerCrashError as exc:
                self._crash_count += 1
                self._m_crashes.inc()
                crashes += 1
                # The casualty's unanswered shards: assigned to it and not
                # back yet (a result it flushed before dying already left
                # `outstanding`).
                lost = [
                    shard_index
                    for shard_index in outstanding
                    if shard_index % self._num_workers == exc.worker_id
                ]
                if crashes > crash_retries:
                    raise WorkerCrashError(
                        exc.worker_id,
                        exc.exitcode,
                        detail=(
                            f"batch crash budget exhausted "
                            f"({crashes} deaths > {crash_retries} retries)"
                            if crash_retries
                            else ""
                        ),
                        positions=lost_positions(lost),
                    ) from exc
                try:
                    self._respawn(exc.worker_id)
                except BaseException as respawn_exc:
                    raise WorkerCrashError(
                        exc.worker_id,
                        exc.exitcode,
                        detail=f"respawning the worker failed: {respawn_exc}",
                        positions=lost_positions(lost),
                    ) from respawn_exc
                for shard_index in sorted(lost):
                    dispatch(shard_by_index[shard_index])
                continue
            except _DeadlineExceeded:
                self._timeout_count += 1
                self._m_timeouts.inc()
                stuck = sorted(
                    {
                        shard_index % self._num_workers
                        for shard_index in outstanding
                    }
                )
                for stuck_id in stuck:
                    self._kill_worker(stuck_id)
                # Best-effort respawn so the pool survives the batch; a
                # slot that cannot come back will surface as a crash on
                # the next batch (which heals or fails loudly there).
                detail = ""
                for stuck_id in stuck:
                    try:
                        self._respawn(stuck_id)
                    except BaseException as respawn_exc:
                        detail = (
                            f"worker {stuck_id} could not be respawned "
                            f"({respawn_exc}); the pool is degraded"
                        )
                        break
                raise WorkerTimeoutError(
                    timeout,
                    worker_ids=stuck,
                    positions=lost_positions(outstanding),
                    detail=detail,
                ) from None
            if message_job != job_id:
                # A leftover from a batch that failed after this worker had
                # already finished its shard; drop it.
                continue
            if message_kind == "error":
                raise ParallelExecutionError(
                    f"worker {worker_id} failed while evaluating its shard:\n"
                    f"{payload}"
                )
            shard_index, positions, reply, delta, worker_trace = payload
            if shard_index not in outstanding:
                continue  # defensive: duplicate delivery
            outstanding.discard(shard_index)
            producers[shard_index] = (worker_id, self._generations[worker_id])
            # Decoded as it arrives (overlapping the wait for the other
            # shards), against this pool's plan, not worker-reported
            # identifiers.
            results = ShardResultCodec.decode(
                reply, shard_by_index[shard_index].queries
            )
            ipc_bytes += len(reply)
            outputs.append(
                ShardOutput(
                    shard_index=shard_index,
                    positions=positions,
                    results=results,
                    delta=delta,
                    trace=worker_trace,
                )
            )
        merged = merge_shard_outputs(outputs, batch_size=plan.num_queries)
        merged.ipc_bytes = ipc_bytes
        for output in sorted(outputs, key=lambda output: output.shard_index):
            if output.delta:
                worker_id, generation = producers[output.shard_index]
                # A worker respawned after answering lost that learning
                # with the process; its replacement needs it forwarded.
                self.forward(
                    output.delta,
                    worker_id
                    if self._generations[worker_id] == generation
                    else None,
                )
        self._m_batches.inc()
        self._m_batch_seconds.observe(time.perf_counter() - batch_started)
        self._m_ipc_result.inc(ipc_bytes)
        return merged

    def update_graph(self, new_graph, repair=None) -> list:
        """Ship the overlay ``new_graph`` to every worker (blocking).

        After the coordinator applies graph mutations as a CSR
        delta-overlay
        (:meth:`~repro.core.engine.ReverseKRanksEngine.apply_updates`),
        the pool stays alive.  Each worker is sent only what it lacks:
        the overlay's
        :meth:`~repro.graph.overlay.OverlayGraph.overlay_delta` against
        the overlay this pool last shipped — the rows the batch
        re-extracted and the nodes it appended, with the version they
        apply on.  Each worker builds its next overlay from its current
        one (:meth:`~repro.graph.overlay.OverlayGraph.from_delta`, which
        refuses a delta for any other version) and swaps in a fresh
        engine.  ``new_graph`` becomes the pool's record of what the
        workers hold: a slot respawned later is seeded with its rows.

        A pool with an index takes ``repair=(drops, hubs, limit,
        prefixes)``, the sharded repair, run from inside
        :meth:`~repro.core.hub_index.HubIndex.repair` (its ``explore``
        hook).  Every worker keeps its replica and applies the repair's
        drops (``drops``, a repair delta without ranks: it drops some
        rows and trims each resumed hub's row to its unchanged prefix,
        in place).  It then re-explores its contiguous chunk of ``hubs``
        at budget ``limit`` on its own overlay, each resumed hub after
        the prefix its replica kept; the prefix distances (``prefixes``,
        ``hub -> dists``, copies) ship with the chunk, so replicas need
        no stored distances.  It returns the tails, with their
        distances; only hubs without a prefix come back whole.  The
        chunks balance the settles left (``limit`` minus the prefix
        length per hub), not the hub count.  The tails are returned
        concatenated, in hub order, and each is queued for the other
        workers without the distances (only the master's repair reads
        them).  A pool without an index takes ``repair=None``.

        Returns the re-explored ``(hub, row, dists)`` triples (empty
        without ``repair``) once every worker has acknowledged.  A
        failed update leaves the workers in mixed states: close the
        pool.

        Raises
        ------
        ParallelExecutionError
            When the pool is closed, ``new_graph`` is not an overlay
            over the base compilation this pool ships its workers, or a
            worker failed to adopt the update (remote traceback
            embedded).
        WorkerCrashError
            When a worker process died during the sync.
        """
        if self._closed:
            raise ParallelExecutionError(
                "cannot update the graph on a closed WorkerPool"
            )
        if (
            not getattr(new_graph, "is_overlay", False)
            or new_graph.base.content_digest() != self._base.content_digest()
        ):
            raise ParallelExecutionError(
                "the overlay was built over a different base compilation "
                "than this pool's workers hold; rebuild the pool instead"
            )
        job_id = next(self._job_ids)
        overlay = new_graph.overlay_delta(self._graph)
        self._graph = new_graph
        shares = [None] * self._num_workers
        if repair is not None:
            drops, hubs, limit, prefixes = repair
            hubs = list(hubs)
            chunks = chunk_evenly(
                hubs,
                self._num_workers,
                [
                    limit - len(prefixes[hub]) if hub in prefixes else limit
                    for hub in hubs
                ],
            )
            shares = [
                (
                    drops, tuple(chunk), limit,
                    {hub: prefixes[hub] for hub in chunk if hub in prefixes},
                )
                for chunk in chunks
            ]
        replies = self._broadcast(
            job_id,
            [
                ("graph", job_id, self._take_pending(worker_id), overlay, share)
                for worker_id, share in enumerate(shares)
            ],
            "adopt the graph update",
        )
        for worker_id, rows in enumerate(replies):
            if rows:
                self.forward(
                    [(hub, row, None) for hub, row, _ in rows], worker_id
                )
        if repair is not None:
            self._m_index_deltas.inc()
        return [row for rows in replies for row in rows]

    def replica_digests(self) -> List[tuple]:
        """Each worker's ``(graph digest, index digest)``, in worker order.

        Queued deltas are delivered first, so a pool in step with its
        master reports, for every worker, the master compilation's
        ``content_digest()`` and the master index's
        :meth:`~repro.core.hub_index.HubIndex.content_digest` (``None``
        without an index).  The live replica check.

        Raises
        ------
        ParallelExecutionError
            When the pool is closed or a worker failed.
        WorkerCrashError
            When a worker process died.
        """
        if self._closed:
            raise ParallelExecutionError(
                "cannot read replica digests of a closed WorkerPool"
            )
        job_id = next(self._job_ids)
        return self._broadcast(
            job_id,
            [
                ("digest", job_id, self._take_pending(worker_id))
                for worker_id in range(self._num_workers)
            ],
            "digest its replica",
        )

    def _broadcast(self, job_id: int, tasks: list, action: str) -> list:
        """Send ``tasks[i]`` to worker ``i``; return the replies in worker order."""
        for task_queue, task in zip(self._task_queues, tasks):
            task_queue.put(task)
        replies: list = [None] * self._num_workers
        waiting = set(range(self._num_workers))
        while waiting:
            message_kind, worker_id, message_job, payload = self._receive()
            if message_job != job_id:
                continue
            if message_kind == "error":
                raise ParallelExecutionError(
                    f"worker {worker_id} failed to {action}:\n{payload}"
                )
            replies[worker_id] = payload
            waiting.discard(worker_id)
        return replies

    def _take_pending(self, worker_id: int) -> list:
        """Hand over (and forget) the deltas queued for ``worker_id``."""
        pending = self._pending[worker_id]
        self._pending[worker_id] = []
        return pending

    def forward(self, item, holder: Optional[int] = None) -> None:
        """Queue ``item`` for every worker except ``holder``, which has it.

        ``item`` is a learning delta or a list of re-explored ``(hub,
        row, None)`` triples, whole rows or the tails of trimmed ones; it
        ships with each worker's next task,
        after what is queued already.  The coordinator forwards the
        learning its master index made itself with ``holder=None``.
        """
        for worker_id, pending in enumerate(self._pending):
            if worker_id != holder:
                pending.append(item)

    def explore_hubs(self, hubs, limit: int) -> list:
        """Explore ``hubs`` across the workers for a sharded build (blocking).

        The hub list is split into contiguous chunks of equal counts
        (:func:`~repro.parallel.planner.chunk_evenly`; every hub costs
        the budget); worker ``j`` explores the ``j``-th chunk at budget
        ``limit`` — the exploration of a sharded repair's chunk, from
        scratch and on a throwaway index, so the replicas learn nothing.
        Returns the ``(hub, row, dists)`` triples in hub order: the
        ``explore`` hook of :meth:`~repro.core.hub_index.HubIndex.build`.

        Raises
        ------
        ParallelExecutionError
            When the pool is closed, or a worker reported an exception.
        WorkerCrashError
            When a worker process died mid-exploration.
        """
        if self._closed:
            raise ParallelExecutionError(
                "cannot explore hubs on a closed WorkerPool"
            )
        job_id = next(self._job_ids)
        chunks = chunk_evenly(list(hubs), self._num_workers)
        replies = self._broadcast(
            job_id,
            [("explore", job_id, tuple(chunk), limit) for chunk in chunks],
            "explore its hub chunk",
        )
        return [row for rows in replies for row in rows]

    def _receive(self, deadline: Optional[float] = None):
        """Next worker message, polling liveness so crashes cannot hang us.

        Waits on every worker's result channel at once
        (:func:`multiprocessing.connection.wait` over the queues' read
        pipes — ``Queue`` has no multi-queue wait of its own), so a
        message from any worker is picked up within one poll interval.
        Raises :class:`~repro.errors.WorkerCrashError` when a worker is
        found dead with its own channel drained, and the internal
        :class:`_DeadlineExceeded` when ``deadline`` (monotonic seconds)
        passes first.
        """
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                raise _DeadlineExceeded()
            readers = {
                result_queue._reader: result_queue
                for result_queue in self._result_queues
            }
            ready = multiprocessing.connection.wait(
                list(readers), timeout=_POLL_SECONDS
            )
            for reader in ready:
                try:
                    return readers[reader].get_nowait()
                except queue_module.Empty:  # pragma: no cover - feeder race
                    continue
            if ready:  # pragma: no cover - all ready readers raced empty
                continue
            for worker_id, process in enumerate(self._processes):
                if not process.is_alive():
                    # Give the crashed worker's final message (flushed by
                    # its queue feeder before death) one last chance.
                    try:
                        return self._result_queues[worker_id].get(
                            timeout=_POLL_SECONDS
                        )
                    except queue_module.Empty:
                        raise WorkerCrashError(
                            worker_id, process.exitcode
                        ) from None

    # -- self-healing machinery ----------------------------------------
    def _spawn_process(self, worker_id: int, init_bytes: bytes):
        """Start one worker process for ``worker_id`` (caller sets env)."""
        generation = self._generations[worker_id]
        name = f"repro-worker-{worker_id}"
        if generation:
            name = f"{name}-g{generation}"
        process = self._ctx.Process(
            target=worker_main,
            args=(
                worker_id,
                init_bytes,
                self._task_queues[worker_id],
                self._result_queues[worker_id],
                generation,
            ),
            name=name,
            daemon=True,
        )
        process.start()
        return process

    def _current_init_bytes(self) -> bytes:
        """The startup payload a worker spawned *now* should receive.

        Always ships the frozen base compilation (overlays refuse both
        pickling and shared memory); the overlay the workers hold, if
        any, rides along as its delta against the base, so a worker
        starts answering against the same mutated adjacency as its
        peers, and the master index is exported as it stands now.
        """
        graph = self._graph
        return build_init_payload(
            None if self._graph_owner is not None else self._base,
            index_state=(
                self._index.export_state() if self._index is not None else None
            ),
            facilities=self._facilities,
            graph_handle=(
                self._graph_owner.handle if self._graph_owner is not None else None
            ),
            overlay=(
                graph.overlay_delta(self._base) if graph.is_overlay else None
            ),
        )

    def _respawn(self, worker_id: int) -> None:
        """Replace a dead/killed worker slot with a fresh process.

        *Both* of the old slot's queues are abandoned: the task queue
        may still hold tasks the casualty never dequeued (re-dispatch is
        the caller's job), and the result queue may be poisoned — a
        worker killed while its queue feeder thread held the write lock
        leaves that cross-process lock held forever, wedging any future
        writer.  The generation counter is bumped (salting the
        replacement's failpoint RNGs) and the call blocks until the
        replacement reports ready on its fresh channel, bounded by
        ``respawn_timeout``.  Other workers' in-flight messages stay
        buffered in their own channels throughout.
        """
        old_process = self._processes[worker_id]
        try:
            old_process.join(timeout=1.0)  # reap the zombie
        except Exception:
            pass
        for old_queue in (
            self._task_queues[worker_id],
            self._result_queues[worker_id],
        ):
            for cleanup in (old_queue.close, old_queue.cancel_join_thread):
                try:
                    cleanup()
                except Exception:
                    pass
        self._generations[worker_id] += 1
        self._task_queues[worker_id] = self._ctx.Queue()
        self._result_queues[worker_id] = self._ctx.Queue()
        init_bytes = self._current_init_bytes()
        # The fresh export already holds everything queued for the slot.
        self._pending[worker_id] = []
        if self._index is not None:
            self._m_index_snapshots.inc()
        self._m_ipc_startup.inc(len(init_bytes))
        with _child_spawn_env():
            self._processes[worker_id] = self._spawn_process(
                worker_id, init_bytes
            )
        self._await_worker_ready(worker_id)
        self._respawn_count += 1
        self._m_respawns.inc()

    def _await_worker_ready(self, worker_id: int) -> None:
        """Block until the respawned ``worker_id`` reports ready.

        Reads only the replacement's own fresh result queue; nothing
        stale can appear on it and nothing from the in-flight batch can
        be swallowed.  On timeout the replacement is killed before
        raising — a wedged child must not outlive the respawn attempt —
        and the caller's crash handling turns the failure into a typed
        batch error instead of a ``start_timeout``-long stall.
        """
        deadline = time.monotonic() + self._respawn_timeout
        result_queue = self._result_queues[worker_id]
        while True:
            if time.monotonic() >= deadline:
                self._kill_worker(worker_id)
                raise ParallelExecutionError(
                    f"respawned worker {worker_id} did not report ready "
                    f"within {self._respawn_timeout:.0f}s (killed)"
                )
            try:
                message = result_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                process = self._processes[worker_id]
                if not process.is_alive():
                    raise WorkerCrashError(
                        worker_id, process.exitcode, detail="during respawn"
                    ) from None
                continue
            message_kind, _, message_job, payload = message
            if message_kind == "ready":
                return
            if message_kind == "error" and message_job is None:
                raise ParallelExecutionError(
                    f"respawned worker {worker_id} failed to start:\n"
                    f"{payload}"
                )

    def _kill_worker(self, worker_id: int) -> None:
        """Forcibly stop a live-but-stuck worker (terminate, then kill)."""
        process = self._processes[worker_id]
        try:
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        except Exception:  # pragma: no cover - already-dead races
            pass

    def _await_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        pending = set(range(self._num_workers))
        while pending:
            readers = {
                self._result_queues[worker_id]._reader: worker_id
                for worker_id in pending
            }
            ready = multiprocessing.connection.wait(
                list(readers), timeout=_POLL_SECONDS
            )
            for reader in ready:
                worker_id = readers[reader]
                try:
                    message_kind, _, _, payload = self._result_queues[
                        worker_id
                    ].get_nowait()
                except queue_module.Empty:  # pragma: no cover - feeder race
                    continue
                if message_kind == "error":
                    raise ParallelExecutionError(
                        f"worker {worker_id} failed to start:\n{payload}"
                    )
                pending.discard(worker_id)
            if ready:
                continue
            for worker_id in sorted(pending):
                process = self._processes[worker_id]
                if not process.is_alive():
                    raise WorkerCrashError(
                        worker_id, process.exitcode, detail="during startup"
                    ) from None
            if time.monotonic() >= deadline:
                hint = ""
                if self._start_method != "fork":
                    hint = (
                        "; under the spawn/forkserver start methods the "
                        "launching script must be import-safe — guard "
                        "pool creation with `if __name__ == '__main__':` "
                        "or children re-execute the script instead of "
                        "starting"
                    )
                num_ready = self._num_workers - len(pending)
                raise ParallelExecutionError(
                    f"worker pool startup timed out after {timeout:.0f}s "
                    f"({num_ready}/{self._num_workers} workers ready){hint}"
                ) from None

    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Shut the workers down; escalates to ``terminate`` on stragglers.

        Idempotent and exception-proof by contract: it runs on normal
        shutdown, after a :class:`~repro.errors.WorkerCrashError`, from
        context-manager ``__exit__`` during an unrelated exception, and
        from ``__del__`` at interpreter teardown — none of which may
        raise.  Every queue operation is individually guarded (a crashed
        worker leaves broken pipes; GC-time cleanup finds queues already
        torn down), and the shared graph segment, if any, is unlinked
        unconditionally at the end of every path through this method.
        """
        if self._closed:
            return
        self._closed = True
        try:
            for task_queue in self._task_queues:
                try:
                    task_queue.put(None)
                except (OSError, ValueError, BrokenPipeError):
                    pass  # queue already broken / worker gone
            for process in self._processes:
                try:
                    process.join(timeout=timeout)
                except Exception:
                    pass
            for process in self._processes:
                try:
                    if process.is_alive():
                        process.terminate()
                        process.join(timeout=2.0)
                except Exception:
                    pass
            for any_queue in list(self._task_queues) + list(self._result_queues):
                try:
                    any_queue.close()
                except (OSError, ValueError, BrokenPipeError, AttributeError):
                    pass
                try:
                    any_queue.cancel_join_thread()
                except Exception:
                    pass
        finally:
            # The one cleanup that MUST happen on every path: a leaked
            # segment outlives the process and eats /dev/shm forever.
            owner = self._graph_owner
            self._graph_owner = None
            if owner is not None:
                owner.unlink()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close(timeout=0.1)
        except Exception:
            pass
