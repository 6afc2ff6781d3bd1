"""The observability layer: metrics registry, tracing, and their wiring.

Registry tests are pure unit tests (concurrency included); the
span-stitching and chaos-metric tests run a *real* 2-worker pool so the
trace-id propagation across the IPC boundary and the event-time metric
writes are exercised end to end, not mocked.
"""

from __future__ import annotations

import json
import multiprocessing
import threading

import pytest

from repro import faults
from repro.core import ReverseKRanksEngine
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsError,
    MetricsRegistry,
    NULL_REGISTRY,
    Tracer,
    get_registry,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAVE_FORK, reason="fork start method unavailable"
)
FAST_CONTEXT = "fork" if HAVE_FORK else None


@pytest.fixture(autouse=True)
def _clear_faults():
    faults.clear()
    yield
    faults.clear()


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_and_gauge_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(MetricsError):
            counter.inc(-1)
        gauge = registry.gauge("repro_g", "help")
        gauge.set(7)
        gauge.inc(3)
        gauge.dec(1)
        assert gauge.value == 9.0

    def test_labels_memoized_and_checked(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_l_total", "help", labels=("path",))
        child = family.labels(path="a")
        assert family.labels(path="a") is child
        child.inc()
        assert registry.sample("repro_l_total", {"path": "a"}) == 1.0
        assert registry.sample("repro_l_total", {"path": "b"}) == 0.0
        with pytest.raises(MetricsError):
            family.labels(wrong="a")
        with pytest.raises(MetricsError):
            family.inc()  # labelled family needs .labels()

    def test_registration_idempotent_but_conflicts_raise(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_same_total", "help")
        assert registry.counter("repro_same_total", "help") is first
        with pytest.raises(MetricsError):
            registry.gauge("repro_same_total", "help")
        with pytest.raises(MetricsError):
            registry.counter("repro_same_total", "help", labels=("x",))
        with pytest.raises(MetricsError):
            registry.counter("0bad name", "help")

    def test_disabled_registry_is_inert(self):
        counter = NULL_REGISTRY.counter("repro_off_total", "help")
        counter.inc(100)
        counter.labels(anything="goes").inc()
        assert counter.value == 0.0
        assert NULL_REGISTRY.render() == ""

    def test_process_global_default_registry(self):
        assert get_registry() is get_registry()
        assert get_registry().enabled

    def test_concurrent_increments_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_c_total", "help", labels=("t",))
        hist = registry.histogram(
            "repro_c_seconds", "help", buckets=(0.5, 1.0)
        )
        rounds, threads = 500, 8

        def worker(tid):
            child = counter.labels(t=str(tid % 2))
            for _ in range(rounds):
                child.inc()
                hist.observe(0.25)

        pool = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        total = registry.sample("repro_c_total", {"t": "0"}) + registry.sample(
            "repro_c_total", {"t": "1"}
        )
        assert total == rounds * threads
        assert hist.count == rounds * threads
        assert hist.total == pytest.approx(0.25 * rounds * threads)


class TestHistogram:
    def test_bucket_edges_are_le_inclusive(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_h", "help", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 100.0):
            hist.observe(value)
        # le-inclusive cumulative: le=1 sees {0.5, 1.0}, le=2 adds
        # {1.5, 2.0}, le=5 adds {4.9, 5.0}, +Inf adds {100.0}.
        assert hist.cumulative_counts() == (2, 4, 6, 7)
        assert hist.count == 7
        assert hist.total == pytest.approx(0.5 + 1.0 + 1.5 + 2.0 + 4.9 + 5.0 + 100.0)

    def test_unsorted_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.histogram("repro_bad", "help", buckets=(2.0, 1.0))
        with pytest.raises(MetricsError):
            registry.histogram("repro_empty", "help", buckets=())

    def test_default_latency_buckets_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestExposition:
    def test_golden_render(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "repro_x_total", "Things counted.", labels=("path",)
        )
        counter.labels(path="a").inc(3)
        gauge = registry.gauge("repro_depth", "Current depth.")
        gauge.set(2.5)
        hist = registry.histogram(
            "repro_lat_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        hist.observe(0.05)
        hist.observe(0.5)
        assert registry.render() == (
            "# HELP repro_depth Current depth.\n"
            "# TYPE repro_depth gauge\n"
            "repro_depth 2.5\n"
            "# HELP repro_lat_seconds Latency.\n"
            "# TYPE repro_lat_seconds histogram\n"
            'repro_lat_seconds_bucket{le="0.1"} 1\n'
            'repro_lat_seconds_bucket{le="1"} 2\n'
            'repro_lat_seconds_bucket{le="+Inf"} 2\n'
            "repro_lat_seconds_sum 0.55\n"
            "repro_lat_seconds_count 2\n"
            "# HELP repro_x_total Things counted.\n"
            "# TYPE repro_x_total counter\n"
            'repro_x_total{path="a"} 3\n'
        )

    def test_render_is_deterministic(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_o_total", "help", labels=("k",))
        for key in ("z", "a", "m"):
            family.labels(k=key).inc()
        assert registry.render() == registry.render()
        lines = [
            line
            for line in registry.render().splitlines()
            if line.startswith("repro_o_total{")
        ]
        assert lines == sorted(lines)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_tracer_allocates_no_spans(self):
        tracer = Tracer()
        assert not tracer.enabled
        with tracer.trace("root") as root:
            with tracer.span("child") as child:
                child.set(x=1)
        assert root is child  # the shared no-op singleton
        assert tracer.spans_created == 0
        assert tracer.last_trace is None

    def test_span_tree_nesting_and_meta(self):
        tracer = Tracer(enabled=True)
        with tracer.trace("root", queries=4):
            with tracer.span("a"):
                with tracer.span("a.inner") as inner:
                    inner.set(hits=2)
            with tracer.span("b"):
                pass
        trace = tracer.last_trace
        assert set(trace) == {"trace_id", "root"}
        root = trace["root"]
        assert root["name"] == "root"
        assert root["meta"] == {"queries": 4}
        assert [child["name"] for child in root["children"]] == ["a", "b"]
        inner = root["children"][0]["children"][0]
        assert inner["name"] == "a.inner"
        assert inner["meta"] == {"hits": 2}
        assert inner["duration_s"] <= root["duration_s"]
        assert inner["start_offset_s"] >= 0.0
        assert tracer.spans_created == 4
        json.dumps(trace)  # must be JSON-clean

    def test_exception_recorded_on_span(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.trace("root"):
                with tracer.span("boom"):
                    raise ValueError("no")
        root = tracer.last_trace["root"]
        assert root["children"][0]["meta"]["error"] == "ValueError"

    def test_attach_grafts_foreign_subtrees(self):
        tracer = Tracer(enabled=True)
        foreign = {"name": "worker.shard", "start_offset_s": 0.0, "duration_s": 0.5}
        with tracer.trace("root"):
            with tracer.span("dispatch"):
                tracer.attach([foreign])
        dispatch = tracer.last_trace["root"]["children"][0]
        assert dispatch["children"] == [foreign]

    def test_explicit_trace_id_propagates(self):
        tracer = Tracer(enabled=True)
        with tracer.trace("root", trace_id="cafe1234"):
            pass
        assert tracer.last_trace["trace_id"] == "cafe1234"


# ----------------------------------------------------------------------
# Engine wiring: counters, staleness fix, trace plumbing
# ----------------------------------------------------------------------
class TestEngineObservability:
    def test_sequential_batch_counters(self, path_graph):
        with ReverseKRanksEngine(path_graph) as engine:
            engine.query_many([0, 5], 2, algorithm="dynamic")
            registry = engine.registry
            assert (
                registry.sample(
                    "repro_query_batches_total", {"path": "sequential"}
                )
                == 1.0
            )
            assert (
                registry.sample(
                    "repro_queries_total", {"algorithm": "dynamic"}
                )
                == 2.0
            )

    def test_injected_registry_is_used(self, path_graph):
        registry = MetricsRegistry()
        with ReverseKRanksEngine(path_graph, registry=registry) as engine:
            assert engine.registry is registry
            engine.query_many([0], 2, algorithm="static")
        assert registry.sample(
            "repro_queries_total", {"algorithm": "static"}
        ) == 1.0

    def test_tracer_disabled_by_default_and_allocation_free(self, path_graph):
        with ReverseKRanksEngine(path_graph) as engine:
            engine.query_many([0, 3], 2, algorithm="dynamic")
            assert engine.tracer.spans_created == 0
            assert engine.last_trace is None

    def test_sequential_trace_tree(self, path_graph):
        with ReverseKRanksEngine(path_graph) as engine:
            engine.tracer.enabled = True
            engine.query_many([0, 3], 2, algorithm="dynamic")
            trace = engine.last_trace
            assert trace["root"]["name"] == "engine.query_many"
            assert trace["root"]["meta"]["algorithm"] == "dynamic"
            names = [c["name"] for c in trace["root"]["children"]]
            assert names == ["engine.sequential"]

    @needs_fork
    def test_stale_ipc_fields_reset_on_sequential_batch(self, random_gnp):
        """Regression: a sequential batch after a parallel one must not
        keep reporting the parallel batch's ipc bytes / stats."""
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        with ReverseKRanksEngine(random_gnp) as engine:
            engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
            assert engine.last_batch_ipc_bytes > 0
            parallel_stats = engine.last_batch_stats
            assert parallel_stats is not None
            engine.query_many(queries, 3, algorithm="dynamic")
            assert engine.last_batch_ipc_bytes == 0
            # A fresh aggregate, not the parallel batch's leftover.
            assert engine.last_batch_stats is not parallel_stats


# ----------------------------------------------------------------------
# Cross-process span stitching + pool/planner metrics
# ----------------------------------------------------------------------
@needs_fork
class TestSpanStitching:
    def test_two_worker_trace_reassembles_under_one_id(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:8]
        with ReverseKRanksEngine(random_gnp) as engine:
            engine.tracer.enabled = True
            engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
            trace = engine.last_trace
            registry = engine.registry

        root = trace["root"]
        assert root["name"] == "engine.query_many"
        dispatch = next(
            child
            for child in root["children"]
            if child["name"] == "engine.pool_dispatch"
        )
        workers = [
            child
            for child in dispatch["children"]
            if child["name"] == "worker.shard"
        ]
        assert len(workers) == 2
        assert {span["meta"]["shard"] for span in workers} == {0, 1}
        for span in workers:
            # Worker clocks are process-local; the invariant that survives
            # the boundary is containment in the parent batch duration.
            assert 0.0 < span["duration_s"] <= root["duration_s"]
            nested = [c["name"] for c in span["children"]]
            assert "engine.query_many" in nested
            assert "worker.encode" in nested
        assert dispatch["meta"]["ipc_bytes"] > 0

        plan_span = next(
            child
            for child in root["children"]
            if child["name"] == "engine.plan"
        )
        assert plan_span["meta"]["skew"] >= 1.0
        assert registry.sample("repro_shard_plans_total") == 1.0
        assert registry.sample(
            "repro_ipc_bytes_total", {"direction": "result"}
        ) == dispatch["meta"]["ipc_bytes"]
        assert registry.sample(
            "repro_pool_batches_total"
        ) == 1.0

    def test_untraced_parallel_batch_ships_no_trees(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        with ReverseKRanksEngine(random_gnp) as engine:
            engine.query_many(
                queries, 3, algorithm="dynamic", workers=2,
                worker_context=FAST_CONTEXT,
            )
            assert engine.last_trace is None
            assert engine.tracer.spans_created == 0


@needs_fork
class TestChaosMetrics:
    def test_crash_and_respawn_counters_reach_registry(self, random_gnp):
        queries = sorted(random_gnp.nodes(), key=repr)[:6]
        faults.configure("worker.before_task=crash#2", seed=7)
        with ReverseKRanksEngine(random_gnp) as engine:
            # Several batches: each worker crashes on its second task and
            # the pool heals in place (respawn + redispatch).
            for _ in range(3):
                engine.query_many(
                    queries, 3, algorithm="dynamic", workers=2,
                    worker_context=FAST_CONTEXT,
                )
            registry = engine.registry
            health = engine.pool_health()
        crashes = registry.sample("repro_worker_crashes_total")
        respawns = registry.sample("repro_worker_respawns_total")
        assert crashes >= 1
        assert respawns >= 1
        # pool_health reads the same instruments: byte-compatible payload.
        assert health["worker_crashes"] == int(crashes)
        assert health["worker_respawns"] == int(respawns)
        # In-place healing absorbed every crash: no batch-level pool
        # failure was declared.
        assert registry.sample("repro_pool_failures_total") == 0.0
        assert health["pool_failures"] == 0


# ----------------------------------------------------------------------
# Serve ops: metrics / trace, and stats byte-compatibility
# ----------------------------------------------------------------------
class TestServeObservability:
    @pytest.fixture()
    def served(self, path_graph, tmp_path):
        from repro.serve import (
            DurableIndexStore,
            QueryServer,
            ServeClient,
            ServeConfig,
        )

        registry = MetricsRegistry()
        store = DurableIndexStore(tmp_path / "state", registry=registry)
        engine = ReverseKRanksEngine(path_graph, registry=registry)
        engine.build_index(num_hubs=3, capacity=8)
        store.install(engine.index)
        config = ServeConfig(max_batch=4)
        with QueryServer(
            engine, config=config, store=store, registry=registry
        ) as server:
            host, port = server.address
            with ServeClient(host=host, port=port) as client:
                yield client, registry
        engine.close_pool()

    def test_metrics_op_renders_shared_registry(self, served):
        client, registry = served
        client.query_many([0, 5], k=2, algorithm="indexed")
        text = client.metrics()
        assert text == registry.render()
        for family in (
            "repro_serve_batches_total",
            "repro_serve_batch_queries",
            "repro_queries_total",
            "repro_journal_appends_total",
        ):
            assert family in text
        # Counters are monotone between scrapes.
        client.query_many([1], k=2, algorithm="indexed")
        assert registry.sample("repro_serve_queries_total") == 3.0

    def test_stats_payload_matches_registry(self, served):
        client, registry = served
        client.query_many([0, 5], k=2, algorithm="indexed")
        stats = client.stats()
        assert stats["queries"] == int(
            registry.sample("repro_serve_queries_total")
        )
        assert stats["batches"] == int(
            registry.sample("repro_serve_batches_total")
        )
        assert stats["overloads"] == 0

    def test_trace_op_toggles_and_returns_tree(self, served):
        client, registry = served
        state = client.trace()
        assert state == {"enabled": False, "trace": None}
        state = client.trace(enable=True)
        assert state["enabled"] is True
        client.query_many([0, 5], k=2, algorithm="indexed")
        state = client.trace()
        assert state["trace"]["root"]["name"] == "engine.query_many"
        state = client.trace(enable=False)
        assert state["enabled"] is False


# ----------------------------------------------------------------------
# Journal metrics
# ----------------------------------------------------------------------
class TestJournalMetrics:
    def _store(self, path_graph, tmp_path, registry, **kwargs):
        from repro.serve import DurableIndexStore

        store = DurableIndexStore(
            tmp_path / "state", registry=registry, **kwargs
        )
        engine = ReverseKRanksEngine(path_graph)
        engine.build_index(num_hubs=3, capacity=8)
        store.install(engine.index)
        return store, engine

    @staticmethod
    def _delta(seed: int):
        from repro.core.hub_index import HubIndexDelta

        return HubIndexDelta(
            ranks={(seed, seed + 1): seed + 3}, explorations={seed: 1}
        )

    def test_append_fsync_and_compaction_metrics(self, path_graph, tmp_path):
        registry = MetricsRegistry()
        store, engine = self._store(
            path_graph, tmp_path, registry, compact_bytes=1
        )
        store.record(self._delta(1))
        assert registry.sample("repro_journal_appends_total") >= 1.0
        fsyncs = registry.get("repro_journal_fsync_seconds")
        assert fsyncs is not None and fsyncs.count >= 1
        assert registry.sample("repro_journal_append_bytes_total") > 0
        size = registry.get("repro_journal_size_bytes")
        assert size is not None and size.value == store.journal.size_bytes
        before = size.value
        # compact_bytes=1: any journal content trips the threshold.
        assert store.maybe_compact(engine.index) is True
        assert registry.sample("repro_journal_compactions_total") >= 1.0
        assert size.value == store.journal.size_bytes < before
        store.close()

    def test_append_failure_counted(self, path_graph, tmp_path):
        from repro.errors import FailpointError

        registry = MetricsRegistry()
        store, engine = self._store(path_graph, tmp_path, registry)
        faults.configure("journal.write=error*1")
        with pytest.raises(FailpointError):
            store.record(self._delta(1))
        assert registry.sample("repro_journal_append_failures_total") == 1.0
        store.close()
