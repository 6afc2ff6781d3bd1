"""The workloads: ``serve-road`` and ``mixed-road``.

Each drives the program only through its public entry points — the
``python -m repro.serve`` CLI and its socket protocol, or
``ReverseKRanksEngine`` — from this one process, and fills a
:class:`Result` with untraced end-to-end numbers (``--trace 0``) or
traced per-layer numbers (``--trace 1``).

Every run does a fixed, seeded amount of work: a set number of requests
per client, or of update-and-query rounds.  ``--seconds`` only caps the
measured phase, so a faster or slower machine measures the same work on
the same graph states.  Set-up is timed several times, half before and
half after the measured phase, and reported as the median.

A traced run interleaves untraced and traced blocks (A B B A, repeated
five times over the measured phase) so that index warm-up and machine
drift fall on both sides alike; the throughput difference between them
is ``obs.trace_overhead_share``.
"""

from __future__ import annotations

import bisect
import math
import os
import random
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import gen
import hygiene
import layers
import oracle
import spans

K = 16
POOL_WORKERS = 2
SERVE_CLIENTS = 2
#: Queries per request of the serve-road warm-up.
WARMUP_BATCH = 64
#: A mixed-road round: one apply_updates batch, then one query_many batch.
ROUND_OPS = 4
ROUND_QUERIES = 16
#: Answers of graphs up to this size are also compared with the
#: program's naive algorithm, which costs ~1.5 s per query at 1,000
#: nodes, ~20 s at 3,600 and minutes at 10,000.
NAIVE_MAX_NODES = 1000
HERE = Path(__file__).resolve().parent

#: ``*_setups`` are (launches before, launches after) the measured phase;
#: a traced run times no set-up beyond the one it measures.  ``tiny``
#: sizes are for the benchmark's own tests, whose ``--seconds`` cap ends
#: the measured phase.
SIZES = {
    "full": dict(
        serve_side=100, mixed_side=60, serve_setups=(5, 4), local_setups=(8, 8),
        serve_warmup=32000, serve_requests=12000, mixed_rounds=165,
        serve_checks=12, naive_checks=2, mixed_check_rounds=4, mixed_check_queries=3,
    ),
    "tiny": dict(
        serve_side=12, mixed_side=10, serve_setups=(2, 1), local_setups=(2, 1),
        serve_warmup=640, serve_requests=100000, mixed_rounds=10000,
        serve_checks=4, naive_checks=2, mixed_check_rounds=2, mixed_check_queries=2,
    ),
}


class Terminated(BaseException):
    """SIGTERM arrived; unwinds through every cleanup block."""


class Context:
    def __init__(self, args, root: Path, workdir: Path, log: Callable[[str], None]):
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.size = SIZES[args.scale]
        self.corrupt = args.corrupt_answer
        self.root = root
        self.workdir = workdir
        self.log = log
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.servers: List["Server"] = []


class Result:
    def __init__(self) -> None:
        #: name -> (value, unit, samples, what was measured)
        self.end_to_end: Dict[str, tuple] = {}
        #: name -> (value, samples)
        self.per_layer: Dict[str, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        self.problems: List[str] = []
        self.lines: List[str] = []

    def wrong(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


class Blocks:
    """A B B A blocks over the measured phase; B blocks are traced.

    Progress is the share of the planned work done or of the ``--seconds``
    cap used, whichever is further; the phase is cut into 20 blocks.
    ``switches`` records when the tracer was turned on or off.
    """

    def __init__(self, start: float, planned: int, seconds: float) -> None:
        self.start = start
        self.planned = planned
        self.seconds = seconds
        self.switches = [(start, False)]

    def traced(self, done: int, now: float) -> bool:
        progress = max(done / self.planned, (now - self.start) / self.seconds)
        return int(progress * 20) % 4 in (1, 2)

    def switched(self, now: float, traced: bool) -> None:
        self.switches.append((now, traced))

    def was_traced(self, when: float) -> bool:
        times = [moment for moment, _ in self.switches]
        return self.switches[bisect.bisect_right(times, when) - 1][1]

    def seconds_in(self, end: float) -> Dict[bool, float]:
        """Seconds spent traced and untraced up to ``end``."""
        spent = {True: 0.0, False: 0.0}
        bounds = self.switches + [(end, None)]
        for (begun, traced), (ended, _) in zip(bounds, bounds[1:]):
            spent[traced] += max(0.0, min(ended, end) - begun)
        return spent


def _latencies(result: Result, label: str, values: List[float], unit_name: str,
               tails=(0.90,)) -> None:
    """The median, gated as ``latency_p50_ms``, and tail percentiles, printed."""
    result.end_to_end["latency_p50_ms"] = (
        percentile(values, 0.50) * 1e3, "ms", len(values),
        f"{label}_p50_ms over {len(values)} {unit_name}",
    )
    for fraction in tails:
        _ungated(result, f"{label}_p{round(fraction * 100)}_ms",
                 percentile(values, fraction) * 1e3, "ms", len(values), unit_name)


def _ungated(result: Result, name: str, value: float, unit: str, samples: int,
             what: str) -> None:
    """A user-facing number printed with its count but left out of the JSON:
    its spread across runs on a shared 2-vCPU VM exceeded 0.25, the largest
    regression bound ``BENCHMARK.json`` may set."""
    result.lines.append(f"{name} = {value:.6g} {unit} (n={samples}; {what}; not gated)")


def _overhead(traced: tuple, untraced: tuple) -> float:
    """1 - traced/untraced throughput, each given as (queries, seconds)."""
    traced_qps = traced[0] / traced[1] if traced[1] else 0.0
    untraced_qps = untraced[0] / untraced[1] if untraced[1] else 0.0
    return 1.0 - traced_qps / untraced_qps if untraced_qps else 0.0


def _check(ctx: Context, result: Result, items, naive_count: int) -> None:
    """Check ``(rows, query, answer)`` items with the exact oracle.

    The first ``naive_count`` items are also compared with the program's
    ``algorithm="naive"`` on a fresh engine over ``rows``, where the
    graph is small enough for it.
    """
    from repro.core.engine import ReverseKRanksEngine
    from repro.graph import Graph

    items = list(items)
    if ctx.corrupt and items:
        rows, query, pairs = items[0]
        stranger = next(n for n in sorted(rows) if n != query and n not in dict(pairs))
        items[0] = (rows, query, [(stranger, pairs[0][1])] + list(pairs[1:]))
    for rows, query, pairs in items:
        problem = oracle.check_answer(rows, query, K, pairs)
        if problem is not None:
            result.wrong(f"wrong answer for query {query}: {problem}")
    naive = [item for item in items[:naive_count] if len(item[0]) <= NAIVE_MAX_NODES]
    for rows, query, pairs in naive:
        graph = Graph()
        for source, row in rows.items():
            for target, weight in row.items():
                if source < target:
                    graph.add_edge(source, target, weight)
        [expected] = ReverseKRanksEngine(graph).query_many([query], K, algorithm="naive")
        if not oracle.equivalent(expected.as_pairs(), pairs):
            result.wrong(f"query {query} disagrees with algorithm='naive'")
    result.lines.append(
        f"checked {len(items)} sampled answers against the exact oracle "
        f"and {len(naive)} against algorithm='naive'"
    )


def _reconcile(result: Result, what: str, sent: float, counted: Dict[str, float]) -> None:
    for name, value in counted.items():
        if value != sent:
            result.problems.append(f"{what}: sent {sent:g} but {name} = {value:g}")
    joined = " = ".join(f"{name} {value:g}" for name, value in counted.items())
    result.lines.append(f"reconciled: {what} sent {sent:g} = {joined}")


# --------------------------------------------------------------------------
# serve-road
# --------------------------------------------------------------------------
class Server:
    """``python -m repro.serve`` (through the launcher) in its own process group."""

    def __init__(self, ctx: Context, dataset: Path, tag: str,
                 spans_out: Optional[Path]) -> None:
        self._ctx = ctx
        self.address = None
        command = [sys.executable, str(HERE / "serve_launcher.py")]
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        command += [
            "--", "--dataset", str(dataset), "--workers", "1",
            "--state-dir", str(ctx.workdir / f"state-{tag}"),
            "--default-k", str(K), "--default-algorithm", "indexed",
        ]
        self.log_path = ctx.workdir / f"server-{tag}.log"
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=ctx.root, env=ctx.env, stdout=subprocess.PIPE,
                stderr=log, stdin=subprocess.DEVNULL, start_new_session=True,
            )
        ctx.servers.append(self)
        self.pid = self.process.pid
        line = self._ready_line(deadline=started + 120.0)
        self.ready_s = time.perf_counter() - started
        endpoint = line.split()[1]
        host, port = endpoint.rsplit(":", 1)
        self.address = (host, int(port))
        ctx.log(f"server pid {self.pid} ready in {self.ready_s:.3f} s")

    def _ready_line(self, deadline: float) -> str:
        fd = self.process.stdout.fileno()
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.perf_counter()
            readable, _, _ = select.select([fd], [], [], max(0.0, remaining))
            chunk = os.read(fd, 4096) if readable else b""
            if not chunk:
                log = self.log_path.read_text(errors="replace")[-2000:]
                raise RuntimeError(f"server never printed READY; its log:\n{log}")
            buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode()
        if not line.startswith("READY "):
            raise RuntimeError(f"unexpected first line from the server: {line!r}")
        return line

    def connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=60.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def call(self, message: dict) -> dict:
        from repro.serve.protocol import recv_message, send_message

        with self.connect() as sock:
            send_message(sock, message)
            response = recv_message(sock)
        if response is None:
            raise ConnectionError(f"server closed the connection on {message['op']!r}")
        return response

    def stop(self) -> None:
        if self.address is None:  # never became ready: nothing to ask politely
            shutdown = lambda: os.killpg(self.pid, signal.SIGTERM)
        else:
            shutdown = lambda: self.call({"op": "shutdown"})
        hygiene.stop_group(self.process, shutdown, 30.0, self._ctx.log)
        self.process.stdout.close()


def serve_road(ctx: Context, result: Result) -> None:
    from repro.serve.protocol import recv_message, send_message

    size = ctx.size
    rng = random.Random(ctx.seed)
    edges = gen.road_lattice(size["serve_side"], rng)
    rows = gen.Adjacency(edges).rows
    dataset = ctx.workdir / "roads.txt"
    gen.write_edge_list(edges, dataset)
    draw = gen.zipf_stream(sorted(rows), rng)
    spans_out = ctx.workdir / "spans.json" if ctx.trace else None
    before_count, after_count = (1, 0) if ctx.trace else size["serve_setups"]

    setups = []
    for attempt in range(before_count):
        last = attempt == before_count - 1
        server = Server(ctx, dataset, str(attempt), spans_out if last else None)
        setups.append(server.ready_s)
        if not last:
            server.stop()

    # Warm the server's self-updating index before timing it: a fresh
    # index answers ~600 single-query requests/s, a warm one over twice
    # that.  One connection sends the warm-up queries in batches, which
    # is quicker and makes the learned state the same in every run of a
    # seed.
    warm_source = random.Random(ctx.seed * 7919 + SERVE_CLIENTS)
    warm_ok = 0
    with server.connect() as sock:
        for _ in range(size["serve_warmup"] // WARMUP_BATCH):
            queries = [draw(warm_source) for _ in range(WARMUP_BATCH)]
            send_message(sock, {"op": "query", "queries": queries, "k": K,
                                "algorithm": "indexed"})
            response = recv_message(sock)
            result.attempted += len(queries)
            if response is not None and response.get("ok"):
                warm_ok += len(queries)
            else:
                result.failed += len(queries)
                ctx.log(f"warm-up error response: {response}")

    planned = size["serve_requests"]  # timed requests per client
    stop = threading.Event()
    timings: List[List[tuple]] = [[] for _ in range(SERVE_CLIENTS)]
    first: List[Dict] = [{} for _ in range(SERVE_CLIENTS)]
    last: List[Dict] = [{} for _ in range(SERVE_CLIENTS)]
    counts = [[0, 0, 0] for _ in range(SERVE_CLIENTS)]  # ok, errors, retries
    crashes: List[BaseException] = []
    before = layers.parse_metrics(server.call({"op": "metrics"})["metrics"])
    meter = hygiene.CpuMeter(server.pid)
    measure_from = time.perf_counter()
    cap = measure_from + ctx.seconds
    blocks = Blocks(measure_from, planned, ctx.seconds) if ctx.trace else None

    def client(index: int) -> None:
        source = random.Random(ctx.seed * 7919 + index)
        traced = False
        try:
            with server.connect() as sock:
                for sequence in range(planned):
                    now = time.perf_counter()
                    if stop.is_set() or now >= cap:
                        break
                    if blocks is not None and index == 0:
                        want = blocks.traced(sequence, now)
                        if want != traced:
                            send_message(sock, {"op": "trace", "enable": want})
                            recv_message(sock)
                            traced = want
                            blocks.switched(time.perf_counter(), want)
                    query = draw(source)
                    sent = time.perf_counter()
                    send_message(sock, {
                        "op": "query", "queries": [query], "k": K,
                        "algorithm": "indexed", "rid": sequence * SERVE_CLIENTS + index,
                    })
                    response = recv_message(sock)
                    done = time.perf_counter()
                    if response is None:
                        raise ConnectionError("server closed the connection")
                    if response.get("ok"):
                        counts[index][0] += 1
                        timings[index].append((sent, done))
                        answer = response["results"][0]
                        first[index].setdefault(query, answer)
                        last[index][query] = answer
                    elif response.get("overloaded"):
                        counts[index][2] += 1
                    else:
                        counts[index][1] += 1
                        ctx.log(f"error response: {response.get('error')}")
        except OSError as exc:  # ConnectionError included
            if not stop.is_set():
                crashes.append(exc)

    threads = [
        threading.Thread(target=client, args=(index,), daemon=True)
        for index in range(SERVE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            while thread.is_alive():
                thread.join(timeout=0.5)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60.0)
    if crashes:
        raise RuntimeError(f"a load client failed: {crashes[0]!r}")

    measured = [t for client_timings in timings for t in client_timings]
    answered = len(measured)
    measure_to = max(done for _, done in measured)
    wall = measure_to - measure_from
    if not ctx.trace:
        cpu_s = meter.seconds()
        peak_rss = meter.peak_rss_mib()
    samples = layers.parse_metrics(server.call({"op": "metrics"})["metrics"])
    server.stop()
    for attempt in range(after_count):
        extra = Server(ctx, dataset, f"after-{attempt}", None)
        setups.append(extra.ready_s)
        extra.stop()

    if not ctx.trace:
        result.end_to_end["setup_s"] = (
            statistics.median(setups), "s", len(setups),
            "launch to READY: dataset load, CSR compile, index build, snapshot fsync",
        )
        result.end_to_end["throughput_qps"] = (
            answered / wall, "queries/s", answered,
            f"{answered} answered requests in {wall:.2f} s, {SERVE_CLIENTS} closed-loop clients",
        )
        _latencies(result, "request", [done - sent for sent, done in measured],
                   "requests", tails=(0.90, 0.99))
        _ungated(result, "cpu_ms_per_query", cpu_s * 1e3 / answered, "ms",
                 answered, "user+sys CPU of the server process per answered query")
        result.end_to_end["peak_rss_mb"] = (
            peak_rss, "MiB", 1, "VmHWM of the server process",
        )

    ok = warm_ok + sum(c[0] for c in counts)
    result.attempted += sum(c[0] + c[1] for c in counts)
    result.failed += sum(c[1] for c in counts)
    result.retries += sum(c[2] for c in counts)
    lifetime = layers.counter_view(samples)
    _reconcile(result, "queries", ok, {
        "repro_serve_queries_total": lifetime["serve_queries"],
        "repro_queries_total": lifetime["queries"],
    })

    answers: Dict[int, list] = {}
    for table in first + last:
        for query, answer in table.items():
            answers.setdefault(query, [])
            if answer not in answers[query]:
                answers[query].append(answer)
    picked = random.Random(ctx.seed).sample(
        sorted(answers), min(size["serve_checks"], len(answers))
    )
    items = [(rows, q, [tuple(p) for p in answer]) for q in picked for answer in answers[q]]
    _check(ctx, result, items, size["naive_checks"])

    # A batch flushed by its window made its requests wait up to the
    # server's --max-wait-ms: many of them mean the clients' round trips
    # outlasted the batcher's hot wait, which slows every request.
    flushes = {cause: layers.total(samples, "repro_serve_flushes_total", cause=cause)
               for cause in ("full", "hot", "window")}
    result.lines.append(
        "flushes by cause over the run: "
        + " ".join(f"{cause}={count:g}" for cause, count in flushes.items())
        + f"; journal compactions={lifetime['compactions']:g}"
    )
    if ctx.trace:
        recorder = spans.Recorder(lambda: False)
        recorder.load(spans_out)
        traced = sum(1 for sent, _ in measured if blocks.was_traced(sent))
        spent = blocks.seconds_in(measure_to)
        overhead = _overhead((traced, spent[True]), (answered - traced, spent[False]))
        counters = layers.delta(lifetime, layers.counter_view(before))
        result.per_layer = layers.per_layer(recorder, counters, answered, 1, overhead)


# --------------------------------------------------------------------------
# mixed-road
# --------------------------------------------------------------------------
def mixed_road(ctx: Context, result: Result) -> None:
    from repro.core.engine import ReverseKRanksEngine
    from repro.graph import Graph

    size = ctx.size
    side = size["mixed_side"]
    rng = random.Random(ctx.seed)
    edges = gen.road_lattice(side, rng)
    traffic = gen.RoadTraffic(side, gen.Adjacency(edges), rng)
    nodes = list(range(side * side))
    planned = size["mixed_rounds"]
    # Rounds whose answers are kept for the check; the last one run is
    # always added.  Round 0 is the warm-up.
    picker = random.Random(ctx.seed)
    keep = set(picker.sample(range(1, planned), size["mixed_check_rounds"] - 1))
    tracing = [ctx.trace]  # set-up is recorded in traced runs
    recorder = spans.Recorder(lambda: tracing[0])
    if ctx.trace:
        spans.install(recorder)

    engine = None
    setups: List[float] = []

    def set_up() -> None:
        nonlocal engine
        if engine is not None:
            engine.close_pool()
            engine = None
        started = time.perf_counter()
        graph = Graph()
        for source, target, weight in edges:
            graph.add_edge(source, target, weight)
        engine = ReverseKRanksEngine(graph)
        engine.compact_graph()
        engine.build_index(num_hubs="auto", explore_limit="auto", capacity=K)
        engine.prepare_parallel(POOL_WORKERS)
        setups.append(time.perf_counter() - started)

    log: List[list] = []  # update ops of every round, for the shadow replay
    kept: Dict[int, tuple] = {}  # round -> (queries, answers)
    rounds = []  # (traced, queries, update seconds, query seconds, start, end)
    try:
        before_count, after_count = size["local_setups"]
        for _ in range(before_count):
            set_up()
        tracing[0] = False

        def one_round(number: int):
            ops = traffic.batch(ROUND_OPS)
            queries = [rng.choice(nodes) for _ in range(ROUND_QUERIES)]
            started = time.perf_counter()
            report = engine.apply_updates(ops)
            updated = time.perf_counter()
            results = engine.query_many(queries, K, algorithm="indexed",
                                        workers=POOL_WORKERS)
            done = time.perf_counter()
            log.append(ops)
            if number in keep:
                kept[number] = (queries, [r.as_pairs() for r in results])
            if report.applied != len(ops) or report.noops:
                result.wrong(f"update batch {ops} applied {report.applied}, "
                             f"no-ops {report.noops}")
            return updated - started, done - updated, queries, results

        final = one_round(0)  # warm-up
        before = layers.counter_view(layers.parse_metrics(engine.registry.render()))
        meter = hygiene.CpuMeter(os.getpid())
        start = now = time.perf_counter()
        blocks = Blocks(start, planned, ctx.seconds)
        for number in range(1, planned + 1):
            if now >= start + ctx.seconds:
                break
            traced = ctx.trace and blocks.traced(number - 1, now)
            tracing[0] = engine.tracer.enabled = traced
            final = one_round(number)
            if traced:
                recorder.add_stats(engine.last_batch_stats, len(final[2]))
                recorder.add_trace(engine.last_trace)
            end = time.perf_counter()
            rounds.append((traced, len(final[2]), final[0], final[1], now, end))
            now = end
        tracing[0] = engine.tracer.enabled = False
        kept[len(log) - 1] = (final[2], [r.as_pairs() for r in final[3]])
        answered = sum(r[1] for r in rounds)
        wall = now - start
        cpu_ms = meter.seconds() * 1e3
        peak_rss = meter.peak_rss_mib()
        after = layers.counter_view(layers.parse_metrics(engine.registry.render()))
        for _ in range(0 if ctx.trace else after_count):
            set_up()
    finally:
        if engine is not None:
            engine.close_pool()

    counters = layers.delta(after, before)
    if counters["fallbacks"]:
        result.lines.append(
            f"WARNING: {counters['fallbacks']:g} sequential fallbacks or worker "
            "respawns distort throughput_qps and the latencies"
        )
    if ctx.trace:
        totals = {True: [0, 0.0], False: [0, 0.0]}
        for traced, queries, _, _, begun, ended in rounds:
            totals[traced][0] += queries
            totals[traced][1] += ended - begun
        result.per_layer = layers.per_layer(
            recorder, counters, answered, POOL_WORKERS,
            _overhead(tuple(totals[True]), tuple(totals[False])),
        )
    else:
        result.end_to_end["setup_s"] = (
            statistics.median(setups), "s", len(setups),
            "Graph build, engine, CSR compile, index build, pool start",
        )
        result.end_to_end["throughput_qps"] = (
            answered / wall, "queries/s", answered,
            f"{answered} queries answered in {wall:.2f} s over {len(rounds)} rounds, "
            "update calls included",
        )
        _latencies(result, "update", [r[2] for r in rounds], f"apply_updates calls of {ROUND_OPS} ops")
        _ungated(result, "cpu_ms_per_query", cpu_ms / answered, "ms", answered,
                 "user+sys CPU of the engine process and its pool workers per query")
        result.end_to_end["peak_rss_mb"] = (
            peak_rss, "MiB", 1, "sum of VmHWM of the engine process and its pool workers",
        )
        _ungated(result, "query_batch_p50_ms",
                 statistics.median(r[3] for r in rounds) * 1e3, "ms", len(rounds),
                 f"query_many calls of {ROUND_QUERIES} queries")

    sent_ops = sum(len(ops) for ops in log)
    sent_queries = ROUND_QUERIES * len(log)
    result.attempted += sent_ops + sent_queries
    _reconcile(result, "update ops", sent_ops,
               {"repro_graph_updates_total": after["updates"]})
    _reconcile(result, "queries", sent_queries, {"repro_queries_total": after["queries"]})

    # Replay the update log on a fresh shadow and check the kept rounds
    # against the graph as it stood after them.
    shadow = gen.Adjacency(edges)
    items = []
    for number, ops in enumerate(log):
        for op in ops:
            shadow.apply(op)
        if number in kept:
            rows = {node: dict(row) for node, row in shadow.rows.items()}
            queries, answers = kept[number]
            for index in picker.sample(range(len(queries)), size["mixed_check_queries"]):
                items.append((rows, queries[index], answers[index]))
    _check(ctx, result, items, size["naive_checks"])
