"""The query service: framing, batching, admission, durability, CLI plumbing.

Server tests run a real :class:`QueryServer` on a loopback TCP port (or a
unix socket) inside the test process — the engine, batcher and handler
threads are all genuine; only process isolation is skipped (the
subprocess restart path is covered by ``scripts/serve_smoke.py`` in CI).
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time

import pytest

from repro.core import ReverseKRanksEngine
from repro.errors import (
    ProtocolError,
    ServeError,
    ServerOverloadedError,
)
from repro.serve import (
    BufferedReceiver,
    DurableIndexStore,
    QueryServer,
    ServeClient,
    ServeConfig,
    recv_message,
    send_message,
)
from repro.serve.bootstrap import parse_fixture, prepare_engine

from conftest import sample_queries


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestProtocol:
    def pair(self):
        return socket.socketpair()

    def test_round_trip(self):
        left, right = self.pair()
        with left, right:
            message = {"op": "query", "queries": [1, 2], "k": 3, "x": "é"}
            send_message(left, message)
            assert recv_message(right) == message

    def test_clean_eof_returns_none(self):
        left, right = self.pair()
        with right:
            left.close()
            assert recv_message(right) is None

    def test_eof_mid_frame_raises(self):
        left, right = self.pair()
        with right:
            left.sendall(struct.pack("<I", 100) + b"{\"a\"")
            left.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_message(right)

    def test_oversized_frame_rejected_without_allocation(self):
        left, right = self.pair()
        with left, right:
            left.sendall(struct.pack("<I", (1 << 31) + 17))
            with pytest.raises(ProtocolError, match="limit"):
                recv_message(right)

    def test_non_json_payload_raises(self):
        left, right = self.pair()
        with left, right:
            left.sendall(struct.pack("<I", 4) + b"\xff\xfe\x00\x01")
            with pytest.raises(ProtocolError, match="not valid JSON"):
                recv_message(right)

    def test_non_object_payload_raises(self):
        left, right = self.pair()
        with left, right:
            left.sendall(struct.pack("<I", 7) + b"[1,2,3]")
            with pytest.raises(ProtocolError, match="JSON object"):
                recv_message(right)


class ChunkedSocket:
    """A socket stand-in whose ``recv`` hands out fixed chunks, then EOF."""

    def __init__(self, data: bytes, size: int) -> None:
        self.chunks = [data[i:i + size] for i in range(0, len(data), size)]
        self.calls = 0

    def recv(self, count: int) -> bytes:
        self.calls += 1
        if not self.chunks:
            return b""
        chunk = self.chunks.pop(0)
        if len(chunk) > count:
            chunk, self.chunks[:0] = chunk[:count], [chunk[count:]]
        return chunk


class TestBufferedReceiver:
    MESSAGES = [
        {"op": "ping"},
        {"op": "query", "queries": list(range(40)), "k": 3, "x": "é"},
        {"ok": True, "results": [[[1, 2], [5, 2]]]},
    ]

    @staticmethod
    def frames(messages) -> bytes:
        left, right = socket.socketpair()
        with left, right:
            for message in messages:
                send_message(left, message)
            left.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                chunk = right.recv(1 << 16)
                if not chunk:
                    return data
                data += chunk

    @pytest.mark.parametrize("size", [1, 3, 7, 64, 1 << 16])
    def test_frames_split_anywhere_read_back_in_order(self, size):
        data = self.frames(self.MESSAGES)
        receiver = BufferedReceiver(ChunkedSocket(data, size))
        assert [recv_message(receiver) for _ in self.MESSAGES] == self.MESSAGES
        assert recv_message(receiver) is None

    def test_frames_that_arrived_together_cost_one_socket_read(self):
        sock = ChunkedSocket(self.frames(self.MESSAGES), 1 << 16)
        receiver = BufferedReceiver(sock)
        for message in self.MESSAGES:
            assert recv_message(receiver) == message
        assert sock.calls == 1

    def test_eof_mid_frame_raises(self):
        data = self.frames(self.MESSAGES[:1])
        receiver = BufferedReceiver(ChunkedSocket(data[:-1], 3))
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_message(receiver)

    def test_back_to_back_frames_on_a_socket(self):
        left, right = socket.socketpair()
        with left, right:
            send_message(left, self.MESSAGES[0])
            send_message(left, self.MESSAGES[1])
            right.settimeout(5.0)  # a lost frame fails instead of hanging
            receiver = BufferedReceiver(right)
            assert recv_message(receiver) == self.MESSAGES[0]
            assert recv_message(receiver) == self.MESSAGES[1]
            left.close()
            assert recv_message(receiver) is None


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
def make_server(graph, store=None, **config_kwargs):
    engine = ReverseKRanksEngine(graph)
    engine.build_index(num_hubs=3, capacity=16)
    server = QueryServer(
        engine, config=ServeConfig(**config_kwargs), store=store
    )
    return server


class TestQueryServer:
    def test_answers_match_direct_engine(self, random_gnp):
        reference = ReverseKRanksEngine(random_gnp)
        reference.build_index(num_hubs=3, capacity=16)
        queries = sample_queries(random_gnp, 4)
        with make_server(random_gnp) as server:
            host, port = server.address
            with ServeClient(host=host, port=port) as client:
                for algorithm in ("dynamic", "indexed"):
                    served = client.query_many(
                        queries, k=4, algorithm=algorithm
                    )
                    direct = reference.query_many(
                        queries, 4, algorithm=algorithm
                    )
                    assert served == [
                        result.as_pairs() for result in direct
                    ]

    def test_single_query_form(self, random_gnp):
        query = sample_queries(random_gnp, 1)[0]
        with make_server(random_gnp) as server:
            host, port = server.address
            with ServeClient(host=host, port=port) as client:
                pairs = client.query(query, k=3, algorithm="dynamic")
        assert len(pairs) == 3

    def test_defaults_applied(self, random_gnp):
        query = sample_queries(random_gnp, 1)[0]
        with make_server(random_gnp, default_k=5) as server:
            host, port = server.address
            with ServeClient(host=host, port=port) as client:
                assert len(client.query(query)) == 5

    def test_concurrent_clients_coalesce_into_batches(self, random_gnp):
        nodes = sorted(random_gnp.nodes())
        with make_server(random_gnp, max_batch=64) as server:
            host, port = server.address
            server.batcher.pause()
            outputs = [None] * 12
            threads = []

            def issue(i):
                with ServeClient(host=host, port=port) as client:
                    outputs[i] = client.query(
                        nodes[i % len(nodes)], k=3, algorithm="indexed"
                    )

            for i in range(12):
                thread = threading.Thread(target=issue, args=(i,))
                thread.start()
                threads.append(thread)
            # Wait until every request is parked in the batcher, then
            # release them as ONE coalesced batch.
            deadline = threading.Event()
            for _ in range(500):
                if server.batcher.requests >= 12:
                    break
                deadline.wait(0.01)
            assert server.batcher.requests == 12
            server.batcher.resume()
            for thread in threads:
                thread.join()
            assert all(out is not None for out in outputs)
            assert server.batcher.batches == 1
            assert server.batcher.queries == 12

    def test_max_batch_caps_each_engine_call(self, random_gnp):
        """A parked backlog drains in max_batch-sized chunks.

        The cap bounds the engine call itself, not just the flush
        trigger — otherwise the one-query-per-request baseline server
        (``max_batch=1``) would quietly coalesce its backlog and the
        batching benchmark would compare a server against itself.
        """
        nodes = sorted(random_gnp.nodes())
        with make_server(random_gnp, max_batch=4) as server:
            host, port = server.address
            server.batcher.pause()
            outputs = [None] * 12
            threads = []

            def issue(i):
                with ServeClient(host=host, port=port) as client:
                    outputs[i] = client.query(
                        nodes[i % len(nodes)], k=3, algorithm="indexed"
                    )

            for i in range(12):
                thread = threading.Thread(target=issue, args=(i,))
                thread.start()
                threads.append(thread)
            for _ in range(500):
                if server.batcher.requests >= 12:
                    break
                time.sleep(0.01)
            assert server.batcher.requests == 12
            server.batcher.resume()
            for thread in threads:
                thread.join()
            assert all(out is not None for out in outputs)
            assert server.batcher.queries == 12
            assert server.batcher.batches == 3

    def test_overload_is_explicit_and_retryable(self, random_gnp):
        nodes = sorted(random_gnp.nodes())
        with make_server(random_gnp, max_pending=2) as server:
            host, port = server.address
            server.batcher.pause()
            try:
                with ServeClient(host=host, port=port) as blocker:
                    # Park 2 queries (fills max_pending) without waiting
                    # for the reply frame.
                    send_message(
                        blocker._sock,
                        {
                            "op": "query",
                            "queries": nodes[:2],
                            "k": 3,
                            "algorithm": "dynamic",
                        },
                    )
                    for _ in range(500):
                        if server.batcher.requests >= 1:
                            break
                        threading.Event().wait(0.01)
                    with ServeClient(host=host, port=port) as client:
                        with pytest.raises(ServerOverloadedError):
                            client.query(nodes[0], k=3, algorithm="dynamic")
                    assert server.batcher.overloads == 1
                    server.batcher.resume()
                    # The parked request still completes...
                    reply = recv_message(blocker._sock)
                    assert reply["ok"] is True
                # ...and the shed one succeeds on retry.
                with ServeClient(host=host, port=port) as client:
                    assert client.query(nodes[0], k=3, algorithm="dynamic")
            finally:
                server.batcher.resume()

    def test_bad_request_fails_alone(self, random_gnp):
        nodes = sorted(random_gnp.nodes())
        with make_server(random_gnp) as server:
            host, port = server.address
            with ServeClient(host=host, port=port) as client:
                with pytest.raises(ServeError, match="InvalidQueryNodeError"):
                    client.query(10_000, k=3)
                with pytest.raises(ServeError, match="k"):
                    client.query(nodes[0], k=0)
                with pytest.raises(ServeError, match="algorithm|Algorithm"):
                    client.query(nodes[0], k=3, algorithm="nonsense")
                with pytest.raises(ServeError, match="non-empty"):
                    client._call({"op": "query", "queries": []})
                # The connection and server survive all of it.
                assert client.ping()
                assert client.query(nodes[0], k=3)

    def test_unknown_op_is_an_error(self, random_gnp):
        with make_server(random_gnp) as server:
            host, port = server.address
            with ServeClient(host=host, port=port) as client:
                with pytest.raises(ServeError, match="unknown op"):
                    client._call({"op": "frobnicate"})

    def test_info_and_stats(self, random_gnp):
        with make_server(random_gnp, max_batch=32) as server:
            host, port = server.address
            with ServeClient(host=host, port=port) as client:
                info = client.info()
                assert info["num_nodes"] == random_gnp.num_nodes
                assert info["max_batch"] == 32
                assert info["has_index"] is True
                assert info["durable"] is False
                client.query(sorted(random_gnp.nodes())[0], k=3)
                stats = client.stats()
                assert stats["queries"] >= 1
                assert stats["batches"] >= 1
                assert stats["index_known_ranks"] > 0

    def test_unix_socket_transport(self, random_gnp, tmp_path):
        path = str(tmp_path / "serve.sock")
        engine = ReverseKRanksEngine(random_gnp)
        engine.build_index(num_hubs=3, capacity=16)
        server = QueryServer(engine, unix_path=path)
        with server:
            with ServeClient(unix_path=path) as client:
                assert client.ping()
                assert client.query(
                    sorted(random_gnp.nodes())[0], k=3, algorithm="indexed"
                )
        # The socket file is cleaned up on stop.
        assert not (tmp_path / "serve.sock").exists()

    def test_shutdown_op_stops_server(self, random_gnp):
        server = make_server(random_gnp).start()
        host, port = server.address
        with ServeClient(host=host, port=port) as client:
            client.shutdown()
        server.serve_forever()  # returns because stop() ran
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)

    def test_garbage_frame_gets_error_response(self, random_gnp):
        with make_server(random_gnp) as server:
            host, port = server.address
            with socket.create_connection((host, port)) as raw:
                raw.sendall(struct.pack("<I", 3) + b"abc")
                reply = recv_message(raw)
                assert reply["ok"] is False

    def test_answered_learning_survives_crash(self, random_gnp, tmp_path):
        """Durability ordering: an answered query's learning is on disk.

        The server process state is abandoned (no stop(), no final
        compaction — the kill -9 analogue for in-process tests) and the
        store directory alone must reproduce every rank the clients'
        answered queries taught the index.
        """
        engine = ReverseKRanksEngine(random_gnp)
        engine.build_index(num_hubs=3, capacity=16)
        store = DurableIndexStore(tmp_path / "state")
        store.install(engine.index)
        server = QueryServer(engine, store=store).start()
        host, port = server.address
        queries = sample_queries(random_gnp, 4)
        with ServeClient(host=host, port=port) as client:
            client.query_many(queries, k=4, algorithm="indexed")
            answered_state = pickle.dumps(engine.export_state())
        # Simulated kill -9: nothing is stopped, closed, or compacted.
        del server, store

        replayed = DurableIndexStore(tmp_path / "state").load(random_gnp)
        assert pickle.dumps(replayed.export_state()) == answered_state

    def test_clean_stop_compacts_journal(self, random_gnp, tmp_path):
        engine = ReverseKRanksEngine(random_gnp)
        engine.build_index(num_hubs=3, capacity=16)
        store = DurableIndexStore(tmp_path / "state")
        store.install(engine.index)
        with QueryServer(engine, store=store) as server:
            host, port = server.address
            with ServeClient(host=host, port=port) as client:
                client.query_many(
                    sample_queries(random_gnp, 4), k=4, algorithm="indexed"
                )
        reopened = DurableIndexStore(tmp_path / "state")
        assert reopened.journal.num_records == 0  # folded on shutdown
        loaded = reopened.load(random_gnp)
        assert pickle.dumps(loaded.export_state()) == pickle.dumps(
            engine.export_state()
        )


# ----------------------------------------------------------------------
# Config validation and bootstrap
# ----------------------------------------------------------------------
class TestConfigAndBootstrap:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_batch": 2.5},
            {"max_pending": 0},
            {"workers": 0},
            {"workers": True},
            {"default_k": 0},
            {"default_algorithm": "bogus"},
            {"max_batch": True},
            {"max_pending": "x"},
            {"batch_timeout_s": float("nan")},
            {"batch_timeout_s": float("inf")},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ServeError):
            ServeConfig(**kwargs)

    def test_cli_rejects_bad_config_before_startup(self, capsys):
        from repro.serve.__main__ import main

        # A usage error (exit 2) before the engine is prepared, not a
        # traceback from whatever first trips over the bad value.
        with pytest.raises(SystemExit) as excinfo:
            main(["--fixture", "path:12", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "workers must be a positive integer" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["--fixture", "path:12", "--batch-timeout", "nan"])
        assert excinfo.value.code == 2
        assert "batch_timeout_s must be a finite number" in (
            capsys.readouterr().err
        )

    def test_parse_fixture_specs(self):
        workload = parse_fixture("gnp:40:9")
        assert workload.family == "gnp"
        assert workload.num_nodes == 40
        assert workload.seed == 9
        assert parse_fixture("grid:5").num_nodes == 25

    @pytest.mark.parametrize(
        "spec", ["nope:10", "gnp:a", "gnp:1:2:3", "bichromatic:20"]
    )
    def test_bad_fixture_specs_rejected(self, spec):
        with pytest.raises(ServeError):
            parse_fixture(spec)

    def test_prepare_engine_restores_from_store(self, tmp_path):
        workload = parse_fixture("gnp:30:5")
        store = DurableIndexStore(tmp_path / "state")
        engine, restored = prepare_engine(workload, store=store)
        assert restored is False
        engine.index.start_learning_log()
        engine.query_many(workload.queries, workload.k, algorithm="indexed")
        store.record(engine.index.pop_learning_log())
        state = pickle.dumps(engine.export_state())
        del store

        workload2 = parse_fixture("gnp:30:5")
        engine2, restored2 = prepare_engine(
            workload2, store=DurableIndexStore(tmp_path / "state")
        )
        assert restored2 is True
        assert pickle.dumps(engine2.export_state()) == state


# ----------------------------------------------------------------------
# Fault tolerance: health op, journal faults, client retries, backoff
# ----------------------------------------------------------------------
import multiprocessing
import os as _os
import random as _random

from repro import faults
from repro.errors import ServeConnectionError
from repro.serve.loadgen import overload_backoff_s

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(autouse=True)
def _disarm_failpoints():
    yield
    faults.clear()


class TestFaultTolerance:
    def test_health_op_basics(self, random_gnp):
        with make_server(random_gnp) as server:
            host, port = server.address
            with ServeClient(host=host, port=port) as client:
                health = client.health()
        assert health["ok"] is True
        assert health["healthy"] is True
        assert health["journal_failures"] == 0
        assert health["pool_active"] is False
        assert health["degraded"] is False
        assert health["worker_crashes"] == 0

    @pytest.mark.skipif(not HAVE_FORK, reason="needs fork start method")
    def test_health_reflects_pool_crash_and_server_heals(self, random_gnp):
        """Kill a live worker; the next batch heals and health says so."""
        reference = ReverseKRanksEngine(random_gnp)
        reference.build_index(num_hubs=3, capacity=16)
        queries = sample_queries(random_gnp, 6)
        with make_server(
            random_gnp, workers=2, worker_context="fork"
        ) as server:
            host, port = server.address
            with ServeClient(host=host, port=port) as client:
                first = client.query_many(queries, k=4, algorithm="dynamic")
                pool = server.engine._pool
                assert pool is not None
                _os.kill(pool._processes[0].pid, 9)
                healed = client.query_many(queries, k=4, algorithm="dynamic")
                health = client.health()
            server.engine.close_pool()
        direct = reference.query_many(queries, 4, algorithm="dynamic")
        expected = [result.as_pairs() for result in direct]
        assert first == expected
        assert healed == expected
        assert health["worker_crashes"] >= 1
        assert health["worker_respawns"] >= 1
        assert health["degraded"] is False

    def test_journal_fault_fails_batch_loudly_and_server_survives(
        self, random_gnp, tmp_path
    ):
        """A journal I/O fault must fail the batch, not fake durability.

        The response contract is: learning is fsynced before any answer
        releases.  With ``journal.fsync=error`` armed, the batch's
        requests get an error response (mentioning the failpoint), the
        batcher thread survives, the failure is counted in ``health``,
        and the very next batch — fault disarmed by its ``*1`` budget —
        succeeds and journals normally.
        """
        engine = ReverseKRanksEngine(random_gnp)
        engine.build_index(num_hubs=3, capacity=16)
        store = DurableIndexStore(tmp_path / "state")
        store.install(engine.index)
        queries = sample_queries(random_gnp, 4)
        with QueryServer(engine, store=store) as server:
            host, port = server.address
            faults.configure("journal.fsync=error*1")
            with ServeClient(host=host, port=port) as client:
                with pytest.raises(ServeError, match="FailpointError"):
                    client.query_many(queries, k=4, algorithm="indexed")
                health = client.health()
                assert health["healthy"] is True
                assert health["journal_failures"] == 1
                # The batcher survived; the next batch answers and
                # journals normally.
                answers = client.query_many(queries, k=4, algorithm="indexed")
                assert answers
                assert client.health()["journal_failures"] == 1
            # The failed batch journalled nothing; the good one did
            # (clean stop will compact, so check before leaving).
            assert store.journal.num_records == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_timeout_s": 0.0},
            {"batch_timeout_s": -1.0},
        ],
    )
    def test_bad_fault_config_rejected(self, kwargs):
        with pytest.raises(ServeError):
            ServeConfig(**kwargs)


class TestClientRetries:
    def test_connect_failure_is_typed(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServeConnectionError):
            ServeClient(host="127.0.0.1", port=free_port, timeout=0.5)

    def test_mid_request_failure_is_typed(self, random_gnp):
        with make_server(random_gnp) as server:
            host, port = server.address
            client = ServeClient(host=host, port=port)
            try:
                client._sock.close()  # simulate the connection dying
                with pytest.raises(ServeConnectionError):
                    client.ping()
            finally:
                client.close()

    def test_retries_reconnect_after_dead_socket(self, random_gnp):
        with make_server(random_gnp) as server:
            host, port = server.address
            client = ServeClient(
                host=host, port=port, retries=2, backoff_s=0.001
            )
            try:
                client._sock.close()
                assert client.ping()  # reconnects transparently
                assert client.retries_used >= 1
            finally:
                client.close()

    def test_retries_cover_overload_backpressure(self, random_gnp):
        """An overloaded response retries inside the client knob."""
        nodes = sorted(random_gnp.nodes())
        with make_server(random_gnp, max_pending=2) as server:
            host, port = server.address
            server.batcher.pause()
            try:
                with ServeClient(host=host, port=port) as blocker:
                    send_message(
                        blocker._sock,
                        {
                            "op": "query",
                            "queries": nodes[:2],
                            "k": 3,
                            "algorithm": "dynamic",
                        },
                    )
                    for _ in range(500):
                        if server.batcher.requests >= 1:
                            break
                        time.sleep(0.01)
                    # Unblock the batcher shortly after the first
                    # overloaded rejection so the retry can land.
                    threading.Timer(0.05, server.batcher.resume).start()
                    with ServeClient(
                        host=host, port=port, retries=50, backoff_s=0.005
                    ) as client:
                        assert client.query(
                            nodes[0], k=3, algorithm="dynamic"
                        )
                        assert client.retries_used >= 1
                    assert recv_message(blocker._sock)["ok"] is True
            finally:
                server.batcher.resume()

    def test_retry_knob_validation(self):
        with pytest.raises(ServeError):
            ServeClient(host="127.0.0.1", port=1, retries=-1)


class TestOverloadBackoff:
    def test_full_jitter_window_bounds(self):
        rng = _random.Random(3)
        for attempt in range(20):
            delay = overload_backoff_s(attempt, rng, base_s=0.002, cap_s=0.25)
            assert 0.0 <= delay <= min(0.25, 0.002 * 2**attempt)

    def test_cap_bounds_late_attempts(self):
        rng = _random.Random(5)
        samples = [
            overload_backoff_s(30, rng, base_s=0.002, cap_s=0.25)
            for _ in range(50)
        ]
        assert all(0.0 <= s <= 0.25 for s in samples)
        # Full jitter: the window is actually used, not a fixed point.
        assert max(samples) > 0.1
        assert min(samples) < 0.1

    def test_deterministic_given_rng(self):
        a = [overload_backoff_s(i, _random.Random(9)) for i in range(5)]
        b = [overload_backoff_s(i, _random.Random(9)) for i in range(5)]
        assert a == b
