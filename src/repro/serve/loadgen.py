"""Closed-loop load generator for the query service.

``python -m repro.serve.loadgen`` drives a running server with N client
threads, each issuing one request at a time (closed loop: the next
request leaves only when the previous response lands), and reports
per-request latency percentiles plus end-to-end throughput.  Overloaded
responses — the server's explicit backpressure — are retried with
capped exponential backoff and full jitter (so a herd of rejected
clients decorrelates instead of re-colliding on the same tick) and
counted, both in aggregate and per client.

``--compare-batching`` is the acceptance harness for the coalescing
claim: it boots two servers *in process* over identically built fixture
engines, both with a durable journal and both dispatching on the same
worker-pool configuration — one with the configured ``max_batch``, one
with ``max_batch=1`` (one query per pool dispatch and per fsync, the
per-request baseline) — drives both with the same closed-loop workload
at saturation, and prints the throughput ratio next to each side's
batch count and queries per batch.  The batched server must win by
>= 2x.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ServeError, ServerOverloadedError
from repro.serve.client import ServeClient

__all__ = [
    "LoadReport",
    "overload_backoff_s",
    "run_load",
    "compare_batching",
    "main",
]

_OVERLOAD_BACKOFF_S = 0.002
_OVERLOAD_BACKOFF_CAP_S = 0.25
_MAX_OVERLOAD_RETRIES = 1000


def overload_backoff_s(
    attempt: int,
    rng: random.Random,
    base_s: float = _OVERLOAD_BACKOFF_S,
    cap_s: float = _OVERLOAD_BACKOFF_CAP_S,
) -> float:
    """Sleep before overload retry ``attempt`` (0-based): full jitter.

    ``uniform(0, min(cap_s, base_s * 2**attempt))`` — the classic
    capped-exponential window with full jitter.  A fixed (or linearly
    growing) delay marches every rejected client back through the
    admission gate in lockstep, re-creating the very burst that was
    rejected; sampling the whole window spreads the herd out while the
    cap keeps the worst-case wait bounded.
    """
    window = min(cap_s, base_s * (2.0 ** attempt))
    return rng.uniform(0.0, window)


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile over an already sorted sample."""
    if not sorted_values:
        return 0.0
    rank = min(
        len(sorted_values) - 1,
        max(0, int(round(fraction * (len(sorted_values) - 1)))),
    )
    return sorted_values[rank]


@dataclass
class LoadReport:
    """What one closed-loop run measured."""

    clients: int
    requests: int
    queries: int
    duration_s: float
    overload_retries: int
    retries_per_client: List[int] = field(default_factory=list)
    latencies_ms: List[float] = field(repr=False, default_factory=list)

    @property
    def throughput_qps(self) -> float:
        """Completed queries per second over the whole run."""
        return self.queries / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def p50_ms(self) -> float:
        return _percentile(sorted(self.latencies_ms), 0.50)

    @property
    def p99_ms(self) -> float:
        return _percentile(sorted(self.latencies_ms), 0.99)

    def as_dict(self) -> dict:
        return {
            "clients": self.clients,
            "requests": self.requests,
            "queries": self.queries,
            "duration_s": round(self.duration_s, 4),
            "throughput_qps": round(self.throughput_qps, 2),
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "overload_retries": self.overload_retries,
            "retries_per_client": list(self.retries_per_client),
        }


def run_load(
    queries: List,
    k: int,
    algorithm: str,
    num_clients: int,
    requests_per_client: int,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    unix_path: Optional[str] = None,
    queries_per_request: int = 1,
) -> LoadReport:
    """Drive the server with a closed loop of ``num_clients`` threads.

    Each thread owns one connection and walks the query list round-robin
    from its own offset (so concurrent clients hit different nodes),
    sending ``queries_per_request`` queries per request.  An overloaded
    response retries the same request after a capped-exponential,
    fully-jittered backoff (see :func:`overload_backoff_s`); any other
    error aborts the run.  The report carries both the aggregate retry
    count and a per-client breakdown, so a single starved connection
    shows up instead of averaging away.
    """
    latencies_lock = threading.Lock()
    latencies: List[float] = []
    retries_per_client = [0] * num_clients
    errors: List[BaseException] = []

    def client_loop(client_id: int) -> None:
        rng = random.Random(client_id)  # jitter decorrelates anyway
        retries = 0
        try:
            with ServeClient(
                host=host, port=port, unix_path=unix_path, timeout=120.0
            ) as client:
                local: List[float] = []
                cursor = client_id  # offset so clients interleave the pool
                for _ in range(requests_per_client):
                    request = [
                        queries[(cursor + j) % len(queries)]
                        for j in range(queries_per_request)
                    ]
                    cursor += queries_per_request
                    started = time.perf_counter()
                    for attempt in range(_MAX_OVERLOAD_RETRIES):
                        try:
                            client.query_many(request, k=k, algorithm=algorithm)
                            break
                        except ServerOverloadedError:
                            retries += 1
                            time.sleep(overload_backoff_s(attempt, rng))
                    else:
                        raise ServeError(
                            "request still overloaded after "
                            f"{_MAX_OVERLOAD_RETRIES} retries"
                        )
                    local.append((time.perf_counter() - started) * 1000.0)
                with latencies_lock:
                    latencies.extend(local)
                    retries_per_client[client_id] = retries
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            with latencies_lock:
                retries_per_client[client_id] = retries
                errors.append(exc)

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(num_clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - started
    if errors:
        raise errors[0]
    total_requests = num_clients * requests_per_client
    return LoadReport(
        clients=num_clients,
        requests=total_requests,
        queries=total_requests * queries_per_request,
        duration_s=duration,
        overload_retries=sum(retries_per_client),
        retries_per_client=retries_per_client,
        latencies_ms=latencies,
    )


def compare_batching(
    fixture: str,
    k: int,
    algorithm: str,
    num_clients: int,
    requests_per_client: int,
    max_batch: int,
    workers: int = 2,
) -> dict:
    """Batched vs one-query-per-request server, same pool, same closed loop.

    Boots a fresh in-process server per configuration over identically
    built fixture engines, each with its own durable
    :class:`~repro.serve.journal.DurableIndexStore`, runs the same
    closed-loop load against each, and returns both reports — each with
    the ``batches`` its server executed and its ``queries_per_batch`` —
    plus the throughput ratio.

    Both sides dispatch on a ``workers``-way persistent pool and journal
    their learning with fsync at batch boundaries; the only difference
    is coalescing.  The baseline (``max_batch=1``,
    ``parallel_min_batch=1``) pays one pool round trip and one fsync
    *per query*; the batched side amortises both — plus in-batch
    dedupe — across every query that queued while the previous batch
    ran.  The baseline runs first so hub-index warm-up (the learned
    state starts equally cold on both) cannot favour batching.
    """
    import tempfile
    from pathlib import Path

    from repro.serve.bootstrap import parse_fixture, prepare_engine
    from repro.serve.journal import DurableIndexStore
    from repro.serve.server import QueryServer, ServeConfig

    reports = {}
    counters = {}
    with tempfile.TemporaryDirectory(prefix="repro-compare-") as tmp:
        for label, batch_limit in (("unbatched", 1), ("batched", max_batch)):
            workload = parse_fixture(fixture)
            store = DurableIndexStore(Path(tmp) / label)
            engine, _ = prepare_engine(workload, store=store)
            if batch_limit == 1:
                # The honest per-request baseline: every query rides the
                # pool alone instead of quietly taking the cheaper
                # sequential fallback.
                engine.parallel_min_batch = 1
            config = ServeConfig(
                max_batch=batch_limit,
                max_pending=max(1024, num_clients * 4),
                workers=workers,
            )
            server = QueryServer(engine, config=config, store=store)
            try:
                server.start()
                host, port = server.address
                reports[label] = run_load(
                    list(workload.queries) or list(workload.graph.nodes()),
                    k,
                    algorithm,
                    num_clients,
                    requests_per_client,
                    host=host,
                    port=port,
                )
                counters[label] = (
                    server.batcher.batches, server.batcher.queries
                )
            finally:
                server.stop()
    ratio = (
        reports["batched"].throughput_qps
        / reports["unbatched"].throughput_qps
        if reports["unbatched"].throughput_qps > 0
        else float("inf")
    )
    sides = {
        label: dict(
            reports[label].as_dict(),
            batches=batches,
            queries_per_batch=round(queries / batches, 2) if batches else 0.0,
        )
        for label, (batches, queries) in counters.items()
    }
    return {
        "fixture": fixture,
        "k": k,
        "algorithm": algorithm,
        "workers": workers,
        "unbatched": sides["unbatched"],
        "batched": sides["batched"],
        "throughput_ratio": round(ratio, 2),
    }


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Closed-loop load generator for the repro query service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--unix", default=None, help="unix socket path")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--requests", type=int, default=50, help="requests per client"
    )
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--algorithm", default="indexed")
    parser.add_argument(
        "--queries",
        default=None,
        help="comma-separated int query nodes; default: asks the server "
        "for its graph size and uses every node id",
    )
    parser.add_argument(
        "--queries-per-request", type=int, default=1,
    )
    parser.add_argument(
        "--compare-batching",
        metavar="FIXTURE",
        default=None,
        help="self-hosted mode: boot batched vs unbatched servers over "
        "this fixture spec (family[:size[:seed]]) and print the "
        "throughput ratio and each side's queries per batch",
    )
    parser.add_argument(
        "--max-batch", type=int, default=64,
        help="batched side's coalescing ceiling (compare mode)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="pool width both servers dispatch on (compare mode)",
    )
    args = parser.parse_args(argv)
    if not args.compare_batching and args.port is None and args.unix is None:
        parser.error("need --port or --unix (or --compare-batching)")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    if args.compare_batching:
        payload = compare_batching(
            args.compare_batching,
            args.k,
            args.algorithm,
            args.clients,
            args.requests,
            args.max_batch,
            workers=args.workers,
        )
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0

    if args.queries:
        queries = [int(item) for item in args.queries.split(",")]
    else:
        with ServeClient(
            host=args.host, port=args.port, unix_path=args.unix
        ) as client:
            queries = list(range(client.info()["num_nodes"]))
    report = run_load(
        queries,
        args.k,
        args.algorithm,
        args.clients,
        args.requests,
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        queries_per_request=args.queries_per_request,
    )
    json.dump(report.as_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
