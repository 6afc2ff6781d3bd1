"""The worker-process side of the pool (spawn-safe by construction).

Everything in this module is importable at top level: under the ``spawn``
start method the child pickles the entry point *by reference* and
re-imports this module from scratch, so nothing here may depend on state
that only exists in the parent (closures, lambdas, module-level
mutations).

Startup contract
----------------
Each worker receives one :func:`pickle.dumps`-ed init payload — built by
:func:`build_init_payload` in the parent — containing the base
compilation in one of two transports, the optional
:meth:`~repro.graph.overlay.OverlayGraph.overlay_delta` of the overlay
the pool holds against that base, the optional bichromatic facility set
and an optional :meth:`~repro.core.hub_index.HubIndex.export_state`
snapshot.  This is the only time a worker receives whole state; after
it, its replica changes only by the deltas the tasks below carry.  The
base travels as:

* **pickled** (``"graph"`` key): the coordinator's
  :class:`~repro.graph.csr.CompactGraph` compilation serialised in full.
  Pickling is explicit (bytes, not objects) so the graph and index are
  *copies* under ``fork`` too: a worker warming its local index can never
  mutate the coordinator's.  The worker verifies the compilation's
  content digest against the digest recorded at pool construction.
* **shared** (``"graph_handle"`` key): a
  :class:`~repro.graph.shm.SharedGraphHandle` naming a shared-memory
  segment published by the parent.  The worker *maps* the segment —
  :func:`~repro.graph.shm.attach_compact_graph` recomputes the content
  digest over the mapped bytes before handing the graph out — so startup
  cost and per-worker RSS stay O(1) in the graph size.  The worker keeps
  the segment mapped for its whole lifetime (the graph's buffers are
  views into it) and never unlinks: the segment's lifecycle belongs to
  the parent pool.

The worker applies the overlay delta over the base (refused unless cut
over a base of the same digest), rebuilds a full
:class:`~repro.core.engine.ReverseKRanksEngine` around the resulting
compilation (a :class:`CompactGraph` satisfies the whole read-only graph
protocol, and the engine traverses it as its own
:meth:`~repro.core.engine.ReverseKRanksEngine.compact_graph`), then
serves tasks until it reads the ``None`` shutdown sentinel.

Message protocol (all tuples, queue-pickled)
--------------------------------------------
* parent -> worker: four kinds of tagged tuples, and ``None``, which
  shuts the worker down.

  - ``("query", job_id, forwarded, shard_index, positions, queries, k,
    algorithm_value, bounds, trace_id)`` runs a query shard
    (``trace_id`` is ``None`` unless the parent batch is being traced —
    see :mod:`repro.obs.trace`).
  - ``("explore", job_id, hubs, limit)`` explores a chunk of a sharded
    hub-index build on a throwaway index and is answered with the
    ``(hub, row, dists)`` triples.
  - ``("graph", job_id, forwarded, overlay, repair)`` rebuilds the
    serving engine over the next delta-overlay.  ``overlay`` is an
    :meth:`~repro.graph.overlay.OverlayGraph.overlay_delta`: the rows
    the update re-extracted and the nodes it appended, applied over the
    worker's current overlay and refused unless that overlay is at the
    version the delta applies on.  A worker with an index replica gets
    ``repair = (drops, hubs, limit, prefixes)``, its share of a sharded
    repair: ``drops`` is the repair delta without its ranks (drops, and
    trims of the resumed hubs' rows), ``prefixes`` maps each resumed
    hub of the chunk to a copy of its kept prefix's distances.  It is
    answered with the ``(hub, row, dists)`` triples of the chunk: each
    resumed hub's tail only, other hubs' whole rows.  A worker without
    an index gets ``repair = None`` and answers ``[]``.
  - ``("digest", job_id, forwarded)`` asks for the replica check,
    answered with ``(graph digest, index digest)``.

  ``forwarded`` lists the learning deltas and repair rows and tails
  (``(hub, row, None)`` triples) the master and the other workers
  produced since this worker's last task; they are merged, in order,
  before the task runs.
* worker -> parent: ``(kind, worker_id, job_id, payload)`` where ``kind``
  is ``"ready"`` (startup complete), ``"done"`` (payload is
  ``(shard_index, positions, reply, delta, trace)`` for a query shard —
  ``shard_index`` echoed from the task so the parent can attribute and
  re-dispatch shards without assuming arrival order, ``reply`` the
  shard's results as one pickle
  (:meth:`~repro.parallel.codec.ShardResultCodec.encode`); ``delta`` the
  shard's learning, or ``None`` without an index or for a non-indexed
  algorithm; ``trace`` the worker-side span tree (a plain dict) or
  ``None``) or ``"error"`` (payload is a formatted remote traceback
  string).

Fault injection
---------------
Three :mod:`repro.faults` failpoints are compiled into the serving loop:
``worker.start`` (after the engine is rebuilt, before ``ready``),
``worker.before_task`` (per dequeued task) and ``worker.before_result``
(after computing a payload, before enqueueing it — the hung-worker
site).  :func:`~repro.faults.on_worker_start` re-derives the trigger
RNGs with a ``(worker_id, generation)`` salt, so a respawned worker does
not replay its predecessor's crash schedule and die at the same task
forever.
"""

from __future__ import annotations

import pickle
import traceback
from typing import Dict, Optional

from repro import faults

__all__ = ["build_init_payload", "worker_main"]


def build_init_payload(
    graph,
    index_state: Optional[Dict[str, object]] = None,
    facilities=None,
    graph_handle=None,
    overlay: Optional[Dict[str, object]] = None,
) -> bytes:
    """Serialise the per-worker startup state (parent side).

    Exactly one transport of the base compilation is encoded: when
    ``graph_handle`` (a :class:`~repro.graph.shm.SharedGraphHandle`) is
    given the payload carries only that handle — the CSR buffers never
    enter the pickle and the payload stays a few hundred bytes
    regardless of graph size; otherwise ``graph`` (a
    :class:`~repro.graph.csr.CompactGraph`) is pickled in full alongside
    its content digest.  ``facilities`` is the bichromatic V2 node set
    (or ``None``); ``index_state`` an
    :meth:`~repro.core.hub_index.HubIndex.export_state` snapshot (or
    ``None``); ``overlay`` the
    :meth:`~repro.graph.overlay.OverlayGraph.overlay_delta` of the pool's
    overlay against the base (or ``None``) — overlays refuse pickling by
    design, so the base always travels frozen and the worker rebuilds
    the overlay over the base it actually attached.
    """
    payload = {
        "facilities": None if facilities is None else frozenset(facilities),
        "index_state": index_state,
        "overlay": overlay,
    }
    if graph_handle is not None:
        payload["graph_handle"] = graph_handle
    else:
        payload["graph"] = graph
        payload["digest"] = graph.content_digest()
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


class _WorkerState:
    """A worker's private engine, rebuilt from the init payload."""

    def __init__(self, init: Dict[str, object]) -> None:
        # Imported here, not at module top: the engine layer imports
        # repro.parallel lazily and this module is also imported by the
        # parent-side pool — keeping the heavyweight imports inside the
        # constructor breaks any residual cycle risk and speeds up spawn's
        # re-import of the module itself.
        from repro.errors import ParallelExecutionError

        handle = init.get("graph_handle")
        if handle is not None:
            from repro.graph.shm import attach_compact_graph

            # attach_compact_graph digest-verifies the mapped bytes; the
            # segment must stay referenced as long as the graph lives.
            graph, self._segment = attach_compact_graph(handle)
        else:
            self._segment = None
            graph = init["graph"]
            digest = graph.content_digest()
            if digest != init["digest"]:
                raise ParallelExecutionError(
                    "worker received a corrupted graph payload: content digest "
                    f"{digest} != expected {init['digest']}"
                )
        # Every later ("graph", ...) task builds its overlay over *this*
        # base, from the current overlay's rows (overlays do not stack).
        self._facilities = init["facilities"]
        if init["overlay"] is not None:
            from repro.graph.overlay import OverlayGraph

            # from_delta digest-verifies the delta against the base this
            # worker actually attached/unpickled.
            graph = OverlayGraph.from_delta(graph, init["overlay"])
        self._build_engine(graph, init["index_state"])

    def _build_engine(self, graph, index_state=None, index=None) -> None:
        """(Re)assemble the serving engine around ``graph``.

        The engine's index is ``index`` (already bound to ``graph``) or,
        failing that, one rebuilt from the ``index_state`` snapshot.
        """
        from repro.core.engine import ReverseKRanksEngine
        from repro.core.hub_index import HubIndex
        from repro.graph.partition import BichromaticPartition

        partition = (
            BichromaticPartition(graph, self._facilities)
            if self._facilities is not None
            else None
        )
        if index is None and index_state is not None:
            index = HubIndex.from_state(graph, index_state)
        self.engine = ReverseKRanksEngine(graph, partition=partition, index=index)

    def absorb(self, forwarded) -> None:
        """Merge what the master and the other workers learned, in order.

        ``forwarded`` holds :class:`~repro.core.hub_index.HubIndexDelta`
        learning deltas and lists of re-explored ``(hub, row, None)``
        triples: whole rows, or the tails of rows a repair trimmed.
        """
        from repro.core.hub_index import HubIndexDelta

        index = self.engine.index
        for item in forwarded:
            if isinstance(item, HubIndexDelta):
                index.merge_delta(item)
            else:
                index.merge_rows(item)

    def update_graph(self, overlay, repair):
        """Swap in the next delta-overlay without restarting the process.

        ``overlay`` is the coordinator's
        :meth:`~repro.graph.overlay.OverlayGraph.overlay_delta` against
        the overlay this worker holds: it is applied over the current
        overlay's rows (:meth:`~repro.graph.overlay.OverlayGraph.from_delta`,
        which raises, before anything changes, unless the current
        overlay is at the version the delta applies on).

        A worker without an index gets ``repair = None`` and returns
        ``[]``.  With ``repair = (drops, hubs, limit, prefixes)`` this
        worker's replica is repaired in place: the master's drops advance
        it to the overlay's version, dropping rows and trimming each
        resumed hub's row to its unchanged prefix; ``hubs`` — this
        worker's chunk of the affected hubs — are re-explored on the
        overlay, each resumed hub after its trimmed row, whose distances
        ``prefixes`` holds (``hub -> dists``).  The rows and tails are
        recorded without distances (replicas keep none) and returned as
        ``(hub, row, dists)`` triples.
        """
        from repro.graph.overlay import OverlayGraph

        graph = OverlayGraph.from_delta(self.engine.graph, overlay)
        index = self.engine.index
        if repair is None:
            # A replica still bound to the previous overlay fails the
            # engine's graph check instead of serving stale ranks.
            self._build_engine(graph, index=index)
            return []
        drops, hubs, limit, prefixes = repair
        index.merge_delta(drops)
        index.rebind(graph)
        self._build_engine(graph, index=index)
        rows = index.explore_hubs(hubs, limit, prefixes=prefixes)
        index.merge_rows([(hub, row, None) for hub, row, _ in rows])
        return rows

    def digests(self):
        """``(graph content digest, index content digest or None)``."""
        index = self.engine.index
        return (
            self.engine.graph.content_digest(),
            index.content_digest() if index is not None else None,
        )

    def run_shard(
        self, shard_index, positions, queries, k, algorithm, bounds,
        trace_id=None,
    ):
        """Evaluate one query shard; returns ``(shard_index, positions, reply, delta, trace)``.

        ``reply`` is the shard's results pickled by
        :meth:`~repro.parallel.codec.ShardResultCodec.encode`.

        ``trace_id`` (non-``None`` only for traced parent batches)
        enables the worker engine's tracer for exactly this shard: the
        shard runs under a ``worker.shard`` root span carrying the
        parent's trace id, the engine's own spans nest inside it, and the
        finished tree travels back as ``trace`` — durations and
        worker-local offsets only, because ``perf_counter`` epochs are
        not comparable across processes.  Untraced shards pay a single
        attribute check and allocate no span objects.

        ``delta`` is what an indexed shard learned, or ``None``.
        """
        from repro.core.config import AlgorithmKind
        from repro.parallel.codec import ShardResultCodec

        tracer = self.engine.tracer
        tracer.enabled = trace_id is not None
        with tracer.trace(
            "worker.shard",
            trace_id=trace_id,
            shard=shard_index,
            queries=len(queries),
        ):
            index = self.engine.index
            learns = (
                index is not None and algorithm == AlgorithmKind.INDEXED.value
            )
            if learns:
                index.start_learning_log()
            try:
                results = self.engine.query_many(
                    list(queries), k, algorithm=algorithm, bounds=bounds
                )
            finally:
                delta = index.pop_learning_log() if learns else None
            with tracer.span("worker.encode"):
                reply = ShardResultCodec.encode(results)
        trace = tracer.last_trace["root"] if trace_id is not None else None
        return shard_index, tuple(positions), reply, delta, trace

    def explore_hubs(self, hubs, limit):
        """This worker's chunk of a sharded build: ``(hub, row, dists)`` triples.

        The same exploration a sharded repair runs
        (:meth:`~repro.core.hub_index.HubIndex.explore_hubs`), on a
        throwaway index: the worker may hold none.
        """
        from repro.core.hub_index import HubIndex

        return HubIndex(self.engine.graph, 1, hubs).explore_hubs(hubs, limit)

    def release(self) -> None:
        """Drop the engine and close the shared mapping, in that order.

        Called on clean shutdown so the segment's mmap can actually close:
        the attached graph's buffers are exported memoryviews into it, and
        closing with exports alive raises ``BufferError`` (which at
        interpreter-exit GC would surface as "Exception ignored" noise on
        stderr).  Dropping every graph reference first, then collecting,
        releases the exports.
        """
        segment = self._segment
        self._segment = None
        self.engine = None
        if segment is None:
            return
        import gc

        gc.collect()
        try:
            segment.close()
        except Exception:  # pragma: no cover - stray export still alive
            pass


def worker_main(
    worker_id: int,
    init_bytes: bytes,
    task_queue,
    result_queue,
    generation: int = 0,
) -> None:
    """Entry point of one worker process.

    Reports ``"ready"`` after the engine is rebuilt, then answers tagged
    tasks until the shutdown sentinel.  Any exception — during startup or
    while serving a task — is formatted with its traceback and shipped
    to the parent as an ``"error"`` message; the worker survives task
    errors (the next task may be fine) but startup errors are fatal.

    ``generation`` is the slot's respawn count (0 for the original
    worker); it only feeds the failpoint RNG salt, so replacement
    workers walk fresh deterministic fault schedules.
    """
    faults.on_worker_start(worker_id, generation)
    try:
        state = _WorkerState(pickle.loads(init_bytes))
        faults.fire("worker.start")
    except BaseException:
        result_queue.put(("error", worker_id, None, traceback.format_exc()))
        return
    result_queue.put(("ready", worker_id, None, None))

    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            tag, job_id = task[0], task[1]
            try:
                faults.fire("worker.before_task")
                if tag == "query":
                    (
                        forwarded, shard_index, positions, queries, k,
                        algorithm, bounds, trace_id,
                    ) = task[2:]
                    state.absorb(forwarded)
                    payload = state.run_shard(
                        shard_index, positions, queries, k, algorithm, bounds,
                        trace_id,
                    )
                elif tag == "explore":
                    hubs, limit = task[2:]
                    payload = state.explore_hubs(hubs, limit)
                elif tag == "graph":
                    forwarded, overlay, repair = task[2:]
                    state.absorb(forwarded)
                    payload = state.update_graph(overlay, repair)
                elif tag == "digest":
                    (forwarded,) = task[2:]
                    state.absorb(forwarded)
                    payload = state.digests()
                else:
                    raise ValueError(f"unknown worker task tag {tag!r}")
                faults.fire("worker.before_result")
            except BaseException:
                result_queue.put(
                    ("error", worker_id, job_id, traceback.format_exc())
                )
                continue
            result_queue.put(("done", worker_id, job_id, payload))
    finally:
        state.release()
