#!/usr/bin/env python
"""CI smoke for the query server: concurrency, kill -9, bit-for-bit restart.

The in-process test suite covers every serve component; this script is
the *process-level* rehearsal CI runs on top of it:

1. boot ``python -m repro.serve`` on a seeded fixture graph with a
   durable state directory;
2. drive ~200 concurrent queries through real sockets (closed loop,
   several client threads) while one more connection holds a half-sent
   frame: every other query must be answered, then the stalled frame
   completes and must be answered too; record reference answers plus
   the journal's durable learning high-water mark;
3. ``kill -9`` the server — no shutdown hook, no final compaction; the
   journal's tail is whatever fsync last persisted;
4. boot a fresh server process on the same state directory and assert
   (a) the replayed index is at least as warm as every answer the dead
   server journalled (``known_ranks`` high-water mark) and (b) the
   reference queries answer **bit-for-bit identically**;
5. stop it gracefully via the ``shutdown`` op and re-check that the
   state directory ends compacted (empty journal).

Run with ``--workers 1`` (the default) under CI: kill -9 of a parent
with a live worker pool orphans the pool's shared-memory graph segment
(nobody left to unlink it), which the workflow's /dev/shm leak check
would rightly flag.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.journal import DurableIndexStore  # noqa: E402
from repro.serve.protocol import recv_message  # noqa: E402


def start_server(args, state_dir):
    """Launch ``python -m repro.serve`` and wait for its READY line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            "--fixture",
            args.fixture,
            "--state-dir",
            str(state_dir),
            "--workers",
            str(args.workers),
            "--max-batch",
            str(args.max_batch),
            "--default-algorithm",
            "indexed",
            "--default-k",
            str(args.k),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    deadline = time.monotonic() + args.boot_timeout
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if line.startswith("READY "):
            break
        if process.poll() is not None:
            raise SystemExit(
                f"server exited during startup (rc={process.returncode})"
            )
    else:
        process.kill()
        raise SystemExit("server did not print READY in time")
    endpoint = line.split()[1]
    host, port = endpoint.rsplit(":", 1)
    return process, host, int(port)


def stall_mid_frame(host, port, args):
    """Open a connection that sends half a query frame and stops there.

    Returns the socket and the frame's other half.
    """
    payload = json.dumps({"op": "query", "queries": [0], "k": args.k})
    data = struct.pack("<I", len(payload)) + payload.encode("utf-8")
    sock = socket.create_connection((host, port), timeout=120.0)
    sock.sendall(data[:len(data) // 2])
    return sock, data[len(data) // 2:]


def drive_concurrent_load(host, port, num_nodes, args):
    """~200 concurrent queries from several closed-loop client threads."""
    per_thread = args.load_queries // args.clients
    errors = []

    def loop(offset):
        try:
            with ServeClient(host=host, port=port, timeout=120.0) as client:
                for i in range(per_thread):
                    node = (offset * per_thread + i) % num_nodes
                    result = client.query(node, k=args.k)
                    assert len(result) == args.k, result
        except BaseException as exc:  # noqa: BLE001 - collected for the report
            errors.append(exc)

    threads = [
        threading.Thread(target=loop, args=(i,)) for i in range(args.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise SystemExit(f"load phase failed: {errors[0]!r}")
    return per_thread * args.clients


def reference_answers(host, port, queries, args):
    """One bit-exact answer set: every query, both algorithms."""
    answers = {}
    with ServeClient(host=host, port=port, timeout=120.0) as client:
        for algorithm in ("indexed", "dynamic"):
            answers[algorithm] = client.query_many(
                queries, k=args.k, algorithm=algorithm
            )
    return answers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fixture", default="gnp:120:11")
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--load-queries", type=int, default=200)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--boot-timeout", type=float, default=120.0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        state_dir = Path(tmp) / "state"

        # Phase 1: boot + concurrent load.
        process, host, port = start_server(args, state_dir)
        try:
            with ServeClient(host=host, port=port) as client:
                num_nodes = client.info()["num_nodes"]
            # A client stalled mid-frame must not hold up anyone else.
            stalled, rest = stall_mid_frame(host, port, args)
            with stalled:
                completed = drive_concurrent_load(host, port, num_nodes, args)
                stalled.sendall(rest)
                reply = recv_message(stalled)
            if not reply or not reply.get("ok"):
                raise SystemExit(f"stalled client's query failed: {reply!r}")
            queries = list(range(0, num_nodes, max(1, num_nodes // 32)))
            answers_before = reference_answers(host, port, queries, args)
            with ServeClient(host=host, port=port) as client:
                stats = client.stats()
            print(
                f"phase 1: {completed} concurrent queries answered in "
                f"{stats['batches']} batches while one client stalled "
                f"mid-frame "
                f"(known_ranks={stats['index_known_ranks']}, "
                f"journal_records={stats['journal_records']})"
            )
            # The durable high-water mark: everything learned by ANSWERED
            # batches is journalled, so the replayed index must know at
            # least this many ranks.
            durable_known = stats["index_known_ranks"]

            # Phase 2: kill -9 — the crash the journal exists for.
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

        # Phase 3: restart on the same state directory.
        process, host, port = start_server(args, state_dir)
        try:
            with ServeClient(host=host, port=port) as client:
                stats = client.stats()
            replayed_known = stats["index_known_ranks"]
            if replayed_known < durable_known:
                raise SystemExit(
                    f"restart lost durable learning: replayed index knows "
                    f"{replayed_known} ranks < {durable_known} at kill time"
                )
            answers_after = reference_answers(host, port, queries, args)
            for algorithm in answers_before:
                if answers_before[algorithm] != answers_after[algorithm]:
                    raise SystemExit(
                        f"post-restart {algorithm} answers differ from "
                        "pre-kill answers"
                    )
            print(
                f"phase 3: restarted warm (known_ranks={replayed_known}), "
                f"{len(queries)} reference queries bit-for-bit identical "
                "across the kill"
            )

            # Phase 4: graceful stop through the protocol.
            with ServeClient(host=host, port=port) as client:
                client.shutdown()
            process.wait(timeout=60)
            if process.returncode != 0:
                raise SystemExit(
                    f"graceful shutdown exited rc={process.returncode}"
                )
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

        # A clean stop compacts: the journal must be empty on disk.
        store = DurableIndexStore(state_dir)
        if store.journal.num_records != 0:
            raise SystemExit(
                f"journal not compacted on clean shutdown: "
                f"{store.journal.num_records} records remain"
            )
        store.close()
        print("phase 4: clean shutdown, journal compacted to empty")
    print("serve smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
