"""``python -m repro.serve`` — boot the always-on query server.

Examples::

    # serve a seeded synthetic fixture on a random free TCP port
    python -m repro.serve --fixture gnp:200:7 --state-dir /tmp/repro-state

    # serve a real dataset over a unix socket, 4 worker processes
    python -m repro.serve --dataset data/roads.gr --unix /tmp/repro.sock \\
        --workers 4

The process prints one ``READY <host>:<port> pid=<pid>`` line (or
``READY unix:<path> pid=<pid>``) on stdout once it accepts connections —
smoke jobs wait for that line — then serves until SIGTERM/SIGINT or a
client ``shutdown`` op, both of which shut down gracefully (final
journal compaction included).

With ``--metrics-port`` the process additionally prints one
``METRICS <host>:<port>`` line and serves the shared metrics registry as
Prometheus text over plain HTTP at ``/metrics`` on that port;
``--trace`` turns batch tracing on from boot (see :mod:`repro.obs`).

With ``--state-dir`` the learned index is durable: the first boot builds
it and snapshots it there; every later boot replays snapshot + journal
and resumes exactly as warm as the previous process stopped — even after
kill -9, minus at most the final un-fsynced in-flight batch.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import List, Optional, Tuple

from repro.errors import ServeError
from repro.obs.metrics import MetricsRegistry
from repro.serve.bootstrap import parse_fixture, prepare_engine
from repro.serve.journal import DurableIndexStore
from repro.serve.server import QueryServer, ServeConfig


def _start_metrics_endpoint(registry: MetricsRegistry, host: str, port: int):
    """Serve ``registry.render()`` over plain HTTP on a daemon thread.

    Returns the bound ``(host, port)``.  Stdlib-only on purpose — any
    Prometheus scraper (or ``curl``) can hit ``/metrics`` without the
    framed-JSON client; the endpoint is read-only and shares the exact
    registry the query server writes, so both views always agree.
    """
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class _MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
            if self.path not in ("/", "/metrics"):
                self.send_error(404)
                return
            body = registry.render().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass  # scrapes are periodic; don't spam the server's stderr

    httpd = ThreadingHTTPServer((host, port), _MetricsHandler)
    httpd.daemon_threads = True
    threading.Thread(
        target=httpd.serve_forever, name="repro-metrics-http", daemon=True
    ).start()
    return httpd.server_address[:2]


def _int_or_auto(value: str):
    return value if value == "auto" else int(value)


def _parse_args(
    argv: Optional[List[str]],
) -> Tuple[argparse.Namespace, ServeConfig]:
    """Parse the command line and validate the server settings.

    A bad setting is a usage error (exit 2) here, before the possibly
    long engine preparation, even when no index build would catch it.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Long-running reverse k-ranks query server.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--fixture",
        help="synthetic graph spec: family[:size[:seed]] "
        "(families: path, grid, gnp, powerlaw, lattice)",
    )
    source.add_argument(
        "--dataset", help="dataset file (edge list, DIMACS .gr, or JSON)"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port; 0 picks a free one"
    )
    parser.add_argument("--unix", default=None, help="unix socket path")
    parser.add_argument(
        "--state-dir",
        default=None,
        help="directory for the durable index snapshot + delta journal; "
        "omit for in-memory-only learning",
    )
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--worker-context",
        default=None,
        choices=("fork", "spawn", "forkserver"),
    )
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--max-pending", type=int, default=1024)
    parser.add_argument("--default-k", type=int, default=8)
    parser.add_argument("--default-algorithm", default="indexed")
    parser.add_argument(
        "--num-hubs", type=_int_or_auto, default="auto",
        help="hub-index build budget (int or 'auto')",
    )
    parser.add_argument(
        "--explore-limit", type=_int_or_auto, default="auto",
        help="per-hub exploration budget (int or 'auto')",
    )
    parser.add_argument("--capacity", type=int, default=16)
    parser.add_argument(
        "--batch-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="deadline per parallel batch dispatch; a batch that "
        "overruns it kills the stuck workers, is retried once on a "
        "fresh pool, then answered sequentially (default: no deadline)",
    )
    parser.add_argument(
        "--compact-bytes",
        type=int,
        default=4 * 1024 * 1024,
        help="journal size that triggers snapshot compaction",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="expose Prometheus text metrics over plain HTTP on this "
        "port (0 picks a free one); prints a METRICS line after READY",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable batch tracing from boot (clients can also toggle "
        "it at runtime via the 'trace' op)",
    )
    args = parser.parse_args(argv)
    try:
        config = ServeConfig(
            max_batch=args.max_batch,
            max_pending=args.max_pending,
            workers=args.workers,
            worker_context=args.worker_context,
            default_k=args.default_k,
            default_algorithm=args.default_algorithm,
            batch_timeout_s=args.batch_timeout,
        )
    except ServeError as exc:
        parser.error(str(exc))
    return args, config


def main(argv: Optional[List[str]] = None) -> int:
    args, config = _parse_args(argv)
    if args.fixture:
        workload = parse_fixture(args.fixture)
    else:
        from repro.bench.workloads import dataset_workload

        workload = dataset_workload(args.dataset)

    # One registry spans the whole process — store (journal metrics),
    # engine (dispatch + pool metrics) and server (batcher metrics) — so
    # a single scrape, via the `metrics` op or --metrics-port, sees all
    # of them.
    registry = MetricsRegistry()
    store = (
        DurableIndexStore(
            args.state_dir,
            compact_bytes=args.compact_bytes,
            registry=registry,
        )
        if args.state_dir
        else None
    )
    engine, restored = prepare_engine(
        workload,
        store=store,
        num_hubs=args.num_hubs,
        explore_limit=args.explore_limit,
        capacity=args.capacity,
        workers=args.workers,
        worker_context=args.worker_context,
        registry=registry,
    )
    if args.trace:
        engine.tracer.enabled = True
    if store is not None:
        origin = "restored from" if restored else "installed into"
        print(
            f"index {origin} {args.state_dir} "
            f"(journal_seq={store.last_seq})",
            file=sys.stderr,
            flush=True,
        )

    server = QueryServer(
        engine,
        config=config,
        store=store,
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        registry=registry,
    )

    def handle_signal(signum, frame):  # noqa: ARG001 - signal signature
        server.stop()

    signal.signal(signal.SIGTERM, handle_signal)
    signal.signal(signal.SIGINT, handle_signal)

    with server:
        if args.unix:
            endpoint = f"unix:{args.unix}"
        else:
            host, port = server.address
            endpoint = f"{host}:{port}"
        print(f"READY {endpoint} pid={os.getpid()}", flush=True)
        if args.metrics_port is not None:
            metrics_host, metrics_port = _start_metrics_endpoint(
                registry, args.host, args.metrics_port
            )
            print(f"METRICS {metrics_host}:{metrics_port}", flush=True)
        server.serve_forever()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
