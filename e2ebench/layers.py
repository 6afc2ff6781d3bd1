"""Per-layer metrics derived from a traced run's spans and counters.

Times are means per call of the wrapped function, in ms, over the traced
blocks; ``n`` is the number of calls.  A layer a workload bypasses was
called zero times and reads 0.
"""

from __future__ import annotations

import re
from collections import defaultdict
from statistics import fmean
from typing import Dict, List

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text exposition -> ``{"name{labels}": value}``."""
    samples = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line.strip())
        if match:
            samples[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return samples


def total(samples: Dict[str, float], name: str, **labels: str) -> float:
    """Sum of ``name``'s samples carrying every given label value."""
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    return sum(
        value
        for key, value in samples.items()
        if (key == name or key.startswith(name + "{"))
        and all(label in key for label in wanted)
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(recorder, counters: Dict[str, float], queries: int, workers: int,
              overhead_share: float) -> Dict[str, tuple]:
    """``{name: (value, n)}`` for every per-layer metric.

    ``counters`` are the program's counter deltas over the measured
    phase (gauges at its end); ``queries`` is how many it answered.
    """
    durations: Dict[str, List[float]] = defaultdict(list)
    child_time: Dict[int, float] = defaultdict(float)
    child_names: Dict[int, List[tuple]] = defaultdict(list)
    for sid, parent, name, start, end, _ in recorder.spans:
        durations[name].append(end - start)
        if parent:
            child_time[parent] += end - start
            child_names[parent].append((name, end - start))

    def mean_ms(name: str) -> tuple:
        values = durations.get(name, [])
        return (fmean(values) * 1e3 if values else 0.0, len(values))

    self_ms = [
        (end - start - child_time[sid]) * 1e3
        for sid, _, name, start, end, _ in recorder.spans
        if name == "core.query_many"
    ]

    waits = []
    batch_cost = {
        sid: sum(
            duration for name, duration in child_names[sid]
            if name in ("core.query_many", "serve.journal.record",
                        "serve.journal.maybe_compact")
        )
        for sid, _, name, _, _, _ in recorder.spans if name == "serve.batch"
    }
    for _, _, name, start, end, rid in recorder.spans:
        if name == "serve.request" and recorder.carried_by.get(rid) in batch_cost:
            waits.append((end - start - batch_cost[recorder.carried_by[rid]]) * 1e3)

    stats = recorder.stats
    traced_queries = stats.get("queries", 0.0)
    if durations.get("traversal.sds"):
        sds = mean_ms("traversal.sds")
    else:  # traversal ran in pool workers: their per-query QueryStats time
        sds = (_ratio(stats.get("elapsed_seconds", 0.0), traced_queries) * 1e3,
               int(traced_queries))

    skews = [max(s) / fmean(s) for s, _ in recorder.shards if fmean(s) > 0]
    busy = sum(sum(s) for s, _ in recorder.shards)
    walls = sum(workers * wall for _, wall in recorder.shards)
    serve_queries = counters.get("serve_queries", 0.0)
    per_query = lambda key: (_ratio(stats.get(key, 0.0), traced_queries), int(traced_queries))
    refinements = stats.get("rank_refinements", 0.0)

    values = {
        "serve.residence_ms": mean_ms("serve.request"),
        "serve.batcher.wait_ms": (fmean(waits) if waits else 0.0, len(waits)),
        "serve.batcher.queries_per_batch": (
            _ratio(serve_queries, counters.get("serve_batches", 0.0)),
            int(counters.get("serve_batches", 0.0)),
        ),
        "serve.protocol.send_ms": mean_ms("serve.protocol.send"),
        "serve.journal.record_ms": mean_ms("serve.journal.record"),
        "serve.journal.bytes_per_query": (
            _ratio(counters.get("journal_bytes", 0.0), serve_queries), int(serve_queries)
        ),
        "serve.journal.compact_ms": mean_ms("serve.journal.maybe_compact"),
        "core.engine.query_many_self_ms": (fmean(self_ms) if self_ms else 0.0, len(self_ms)),
        "core.index.seed_ms": mean_ms("core.index.seed"),
        "core.index.answered_share": (
            _ratio(stats.get("answered_by_index", 0.0),
                   stats.get("answered_by_index", 0.0) + refinements),
            int(traced_queries),
        ),
        "core.index.repair_ms": mean_ms("core.index.repair"),
        "core.index.merge_ms": mean_ms("core.index.merge"),
        "core.index.build_ms": mean_ms("core.index.build"),
        "traversal.sds_ms": sds,
        "traversal.refinements_per_query": per_query("rank_refinements"),
        "traversal.refine_settled_per_query": per_query("refinement_nodes_settled"),
        "traversal.tree_pops_per_query": per_query("tree_pops"),
        "traversal.pruned_share": (
            _ratio(stats.get("pruned_by_bound", 0.0),
                   stats.get("pruned_by_bound", 0.0) + refinements),
            int(traced_queries),
        ),
        "parallel.run_batch_ms": mean_ms("parallel.run_batch"),
        "parallel.shard_skew": (fmean(skews) if skews else 0.0, len(skews)),
        "parallel.worker_busy_share": (_ratio(busy, walls), len(recorder.shards)),
        "parallel.ipc_bytes_per_query": (
            _ratio(counters.get("ipc_bytes", 0.0), queries), queries
        ),
        "parallel.decode_ms": mean_ms("parallel.decode"),
        "parallel.graph_sync_ms": mean_ms("parallel.graph_sync"),
        "parallel.pool_start_ms": mean_ms("parallel.pool_start"),
        "parallel.fallbacks": (counters.get("fallbacks", 0.0), 1),
        "graph.load_ms": mean_ms("graph.load"),
        "graph.csr_compile_ms": mean_ms("graph.csr_compile"),
        "graph.recompactions": (counters.get("recompactions", 0.0), 1),
        "graph.overlay_ms": mean_ms("graph.overlay"),
        "graph.overlay_rows": (counters.get("overlay_rows", 0.0), 1),
        "obs.trace_overhead_share": (overhead_share, 2),
    }
    return values


def counter_view(samples: Dict[str, float]) -> Dict[str, float]:
    """The program counters the per-layer table reads, by short name."""
    return {
        "serve_queries": total(samples, "repro_serve_queries_total"),
        "serve_batches": total(samples, "repro_serve_batches_total"),
        "journal_bytes": total(samples, "repro_journal_append_bytes_total"),
        "ipc_bytes": total(samples, "repro_ipc_bytes_total"),
        "fallbacks": total(samples, "repro_query_batches_total", path="sequential_fallback")
        + total(samples, "repro_worker_respawns_total"),
        "recompactions": total(samples, "repro_csr_recompactions_total"),
        "overlay_rows": total(samples, "repro_csr_overlay_rows"),
        "queries": total(samples, "repro_queries_total"),
        "updates": total(samples, "repro_graph_updates_total"),
        "compactions": total(samples, "repro_journal_compactions_total"),
    }


def delta(end: Dict[str, float], start: Dict[str, float]) -> Dict[str, float]:
    """Counter deltas; ``overlay_rows`` is a gauge and keeps its end value."""
    out = {key: end[key] - start.get(key, 0.0) for key in end}
    out["overlay_rows"] = end["overlay_rows"]
    return out
