"""Shared-memory graph transport: share/attach round trips, digest
verification, segment lifecycle (no leaks on any exit path) and the
bit-identity of pool-built hub indexes.

The /dev/shm scans compare the set of ``repro_shm_*`` segments before and
after each lifecycle event, so concurrent unrelated segments (none exist
in CI, but local runs may differ) never cause false failures.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
from pathlib import Path

import pytest

from repro import faults
from repro.core.engine import ReverseKRanksEngine
from repro.core.hub_index import HubIndex
from repro.errors import GraphValidationError, WorkerCrashError
from repro.graph import (
    CompactGraph,
    Graph,
    SharedGraphHandle,
    attach_compact_graph,
    share_compact_graph,
)
from repro.parallel import ShardPlanner, WorkerPool

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")
FAST_CONTEXT = "fork" if HAVE_FORK else None

_SHM_DIR = Path("/dev/shm")


def _repro_segments() -> set:
    """Names of live repro shared-memory segments (empty set if no shmfs)."""
    if not _SHM_DIR.is_dir():
        return set()
    return {
        entry.name
        for entry in _SHM_DIR.iterdir()
        if entry.name.startswith("repro_shm_")
    }


# ----------------------------------------------------------------------
# share / attach round trips
# ----------------------------------------------------------------------
class TestShareAttach:
    def test_round_trip_preserves_graph(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        owner = share_compact_graph(csr)
        try:
            attached, segment = attach_compact_graph(owner.handle)
            try:
                assert attached.num_nodes == csr.num_nodes
                assert attached.num_edges == csr.num_edges
                assert attached.directed == csr.directed
                assert attached.content_digest() == csr.content_digest()
                offsets, targets, weights = csr.out_csr()
                a_offsets, a_targets, a_weights = attached.out_csr()
                assert list(a_offsets) == list(offsets)
                assert list(a_targets) == list(targets)
                assert list(a_weights) == list(weights)
                assert list(attached.nodes()) == list(csr.nodes())
            finally:
                # The cast views keep the mapping alive; drop every
                # reference before closing the segment.
                del attached, a_offsets, a_targets, a_weights
                import gc

                gc.collect()
                segment.close()
        finally:
            owner.unlink()
        assert owner.segment_name not in _repro_segments()

    def test_attached_graph_answers_queries_identically(self, weighted_grid):
        from repro.core.naive import naive_reverse_k_ranks

        csr = CompactGraph.from_graph(weighted_grid)
        owner = share_compact_graph(csr)
        try:
            attached, segment = attach_compact_graph(owner.handle)
            try:
                queries = sorted(weighted_grid.nodes(), key=repr)[:3]
                for query in queries:
                    expected = naive_reverse_k_ranks(csr, query, 3)
                    actual = naive_reverse_k_ranks(attached, query, 3)
                    assert expected.as_pairs() == actual.as_pairs()
            finally:
                del attached, expected, actual
                import gc

                gc.collect()
                segment.close()
        finally:
            owner.unlink()

    def test_string_node_graph_round_trips(self):
        graph = Graph(name="strings")
        for source, target, weight in [
            ("a", "b", 1.0), ("b", "c", 2.0), ("c", "a", 1.5),
        ]:
            graph.add_edge(source, target, weight)
        csr = CompactGraph.from_graph(graph)
        owner = share_compact_graph(csr)
        try:
            attached, segment = attach_compact_graph(owner.handle)
            try:
                assert list(attached.nodes()) == list(csr.nodes())
                assert attached.content_digest() == csr.content_digest()
            finally:
                del attached
                import gc

                gc.collect()
                segment.close()
        finally:
            owner.unlink()

    def test_attached_graph_refuses_pickling(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        owner = share_compact_graph(csr)
        try:
            attached, segment = attach_compact_graph(owner.handle)
            try:
                with pytest.raises(GraphValidationError, match="shared-memory"):
                    pickle.dumps(attached)
            finally:
                del attached
                import gc

                gc.collect()
                segment.close()
        finally:
            owner.unlink()

    def test_requires_compact_graph(self, random_gnp):
        with pytest.raises(GraphValidationError):
            share_compact_graph(random_gnp)


# ----------------------------------------------------------------------
# digest verification — corrupted or mismatched segments fail loudly
# ----------------------------------------------------------------------
class TestDigestVerification:
    def test_tampered_buffer_bytes_are_rejected(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        owner = share_compact_graph(csr)
        try:
            # Flip one byte near the segment's end (inside the buffers).
            view = owner._segment.buf
            view[len(view) - 8] ^= 0xFF
            with pytest.raises(GraphValidationError, match="digest"):
                attach_compact_graph(owner.handle)
        finally:
            owner.unlink()
        assert owner.segment_name not in _repro_segments()

    def test_wrong_digest_in_handle_is_rejected(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        owner = share_compact_graph(csr)
        try:
            forged = SharedGraphHandle(
                segment_name=owner.handle.segment_name,
                total_bytes=owner.handle.total_bytes,
                digest="0" * 64,
            )
            with pytest.raises(GraphValidationError, match="digest"):
                attach_compact_graph(forged)
        finally:
            owner.unlink()

    def test_missing_segment_raises_file_not_found(self):
        # An already-unlinked segment (attach after the owning pool closed)
        # is documented to surface as FileNotFoundError, not a repro error.
        handle = SharedGraphHandle(
            segment_name="repro_shm_feedfacedeadbeef",
            total_bytes=128,
            digest="0" * 64,
        )
        with pytest.raises(FileNotFoundError):
            attach_compact_graph(handle)


# ----------------------------------------------------------------------
# owner lifecycle
# ----------------------------------------------------------------------
def test_owner_unlink_is_idempotent_and_removes_segment(random_gnp):
    csr = CompactGraph.from_graph(random_gnp)
    before = _repro_segments()
    owner = share_compact_graph(csr)
    name = owner.segment_name
    if _SHM_DIR.is_dir():
        assert name in _repro_segments()
    owner.unlink()
    owner.unlink()  # never raises
    assert _repro_segments() == before


# ----------------------------------------------------------------------
# WorkerPool transport
# ----------------------------------------------------------------------
@needs_fork
class TestPoolTransport:
    def test_pool_uses_shared_graph_by_default(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        with WorkerPool(csr, workers=2, context=FAST_CONTEXT) as pool:
            assert pool.uses_shared_graph
            assert pool.shared_segment_name is not None
            if _SHM_DIR.is_dir():
                assert pool.shared_segment_name in _repro_segments()
            plan = ShardPlanner(2).plan(queries)
            outcome = pool.run_batch(plan, 3, "dynamic")
            assert len(outcome.results) == len(queries)
        assert pool.shared_segment_name not in _repro_segments()

    def test_pickled_fallback_matches_shared_results(
        self, random_gnp, monkeypatch
    ):
        csr = CompactGraph.from_graph(random_gnp)
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        plan = ShardPlanner(2).plan(queries)
        with WorkerPool(csr, workers=2, context=FAST_CONTEXT) as shared_pool:
            shared = shared_pool.run_batch(plan, 3, "dynamic")

        def no_shared_memory(graph):
            raise OSError("no shared memory on this platform")

        # The one path to the pickled transport: creating the segment
        # fails with OSError.
        monkeypatch.setattr(
            "repro.parallel.pool.share_compact_graph", no_shared_memory
        )
        with WorkerPool(csr, workers=2, context=FAST_CONTEXT) as pickled_pool:
            assert not pickled_pool.uses_shared_graph
            assert pickled_pool.shared_segment_name is None
            pickled = pickled_pool.run_batch(plan, 3, "dynamic")
        assert [result.as_pairs() for result in shared.results] == [
            result.as_pairs() for result in pickled.results
        ]

    def test_other_publish_errors_are_not_swallowed(
        self, random_gnp, monkeypatch
    ):
        def broken_publish(graph):
            raise RuntimeError("bug while publishing")

        monkeypatch.setattr(
            "repro.parallel.pool.share_compact_graph", broken_publish
        )
        with pytest.raises(RuntimeError, match="bug while publishing"):
            WorkerPool(
                CompactGraph.from_graph(random_gnp),
                workers=2,
                context=FAST_CONTEXT,
            )

    def test_shared_startup_payload_is_graph_size_independent(self):
        # The whole point of the transport: worker startup bytes must not
        # grow with the graph.  Compare a small and a 4x larger grid.
        def grid(side):
            graph = Graph(name=f"g{side}")
            for row in range(side):
                for col in range(side):
                    node = row * side + col
                    if col + 1 < side:
                        graph.add_edge(node, node + 1, 1.0 + (node % 7) / 10)
                    if row + 1 < side:
                        graph.add_edge(node, node + side, 1.0 + (node % 5) / 10)
            return CompactGraph.from_graph(graph)

        sizes = {}
        for side in (8, 32):
            with WorkerPool(grid(side), workers=1, context=FAST_CONTEXT) as pool:
                assert pool.uses_shared_graph
                sizes[side] = pool.startup_payload_bytes
        # Identical payload shape: a handle travels, not the graph.
        assert sizes[32] <= sizes[8] + 64

    def test_no_segment_leak_after_worker_crash(self, random_gnp):
        csr = CompactGraph.from_graph(random_gnp)
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        before = _repro_segments()
        # crash_retries=0: fail-fast instead of self-healing, so the
        # crash actually surfaces and we exercise the leak-on-crash path.
        pool = WorkerPool(csr, workers=2, context=FAST_CONTEXT, crash_retries=0)
        try:
            os.kill(pool.worker_pids[0], signal.SIGKILL)
            deadline = time.time() + 5.0
            while pool._processes[0].is_alive() and time.time() < deadline:
                time.sleep(0.05)
            with pytest.raises(WorkerCrashError):
                pool.run_batch(ShardPlanner(2).plan(queries), 3, "dynamic")
        finally:
            pool.close()
        pool.close()  # idempotent after a crash
        assert _repro_segments() == before

    def test_no_segment_leak_when_pool_is_garbage_collected(self, random_gnp):
        import gc

        csr = CompactGraph.from_graph(random_gnp)
        before = _repro_segments()
        pool = WorkerPool(csr, workers=1, context=FAST_CONTEXT)
        del pool
        gc.collect()
        assert _repro_segments() == before

    def test_explore_hubs_returns_rows_in_hub_order(self, random_gnp):
        """Uneven contiguous chunks (2 + 3 hubs), explored on throwaway
        indexes: the replicas learn nothing, and installing the rows
        gives the sequential build, stored distances included."""
        csr = CompactGraph.from_graph(random_gnp)
        hubs = sorted(random_gnp.nodes(), key=repr)[:5]
        sequential = HubIndex.build(
            random_gnp, hubs=hubs, explore_limit=10, capacity=8, backend=csr
        )
        replica = HubIndex.build(
            random_gnp, hubs=hubs[:1], explore_limit=4, capacity=8, backend=csr
        )
        with WorkerPool(
            csr, workers=2, context=FAST_CONTEXT, index=replica
        ) as pool:
            before = pool.replica_digests()
            rows = pool.explore_hubs(hubs, 10)
            assert pool.replica_digests() == before
        assert [hub for hub, _, _ in rows] == hubs
        merged = HubIndex(random_gnp, 8, hubs)
        merged._explore_limit = 10
        merged.merge_rows(rows)
        assert pickle.dumps(merged.export_state()) == pickle.dumps(
            sequential.export_state()
        )
        assert merged._dists == sequential._dists


# ----------------------------------------------------------------------
# Parallel hub builds are bit-identical to sequential ones
# ----------------------------------------------------------------------
@needs_fork
class TestParallelHubBuildParity:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_engine_parallel_build_is_bit_identical(self, any_graph, workers):
        if any_graph.directed:
            pytest.skip("hub indexes are undirected-only in this fixture set")
        sequential = HubIndex.build(
            any_graph,
            num_hubs=4,
            explore_limit=12,
            capacity=8,
            backend=CompactGraph.from_graph(any_graph),
        )
        with ReverseKRanksEngine(any_graph) as engine:
            parallel = engine.build_index(
                num_hubs=4,
                explore_limit=12,
                capacity=8,
                workers=workers,
                worker_context=FAST_CONTEXT,
            )
            assert pickle.dumps(parallel.export_state()) == pickle.dumps(
                sequential.export_state()
            )
            assert parallel._dists == sequential._dists

    def test_pool_error_costs_the_pool_not_the_build(self, random_gnp):
        """Every worker task raises: the pool is dropped and the master
        explores every hub itself."""
        sequential = HubIndex.build(
            random_gnp, num_hubs=4, explore_limit=12, capacity=8,
            backend=CompactGraph.from_graph(random_gnp),
        )
        faults.configure("worker.before_task=error")
        try:
            with ReverseKRanksEngine(random_gnp) as engine:
                index = engine.build_index(
                    num_hubs=4, explore_limit=12, capacity=8, workers=2,
                    worker_context=FAST_CONTEXT,
                )
                assert engine._pool is None
        finally:
            faults.clear()
        assert pickle.dumps(index.export_state()) == pickle.dumps(
            sequential.export_state()
        )
        assert index._dists == sequential._dists

    def test_auto_budget_parallel_build_matches(self, random_gnp):
        with ReverseKRanksEngine(random_gnp) as engine:
            parallel = engine.build_index(
                num_hubs="auto",
                explore_limit="auto",
                capacity=8,
                workers=2,
                worker_context=FAST_CONTEXT,
            )
            state = pickle.dumps(parallel.export_state())
        sequential = HubIndex.build(
            random_gnp,
            num_hubs="auto",
            explore_limit="auto",
            capacity=8,
            backend=CompactGraph.from_graph(random_gnp),
        )
        assert state == pickle.dumps(sequential.export_state())
