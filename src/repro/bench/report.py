"""Benchmark report assembly and the ``BENCH_core.json`` writer.

The JSON schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "generated_by": "repro.bench",
      "created_at": "2026-07-30T12:00:00Z",       # UTC, ISO-8601
      "environment": {"python": "...", "platform": "..."},
      "config": {"scale": "smoke", "repetitions": 1, "warmup": 0,
                 "seed": 0, "families": [...]},
      "workloads": [
        {
          "name": "gnp-n120", "family": "gnp",
          "num_nodes": 120, "num_edges": 362, "directed": false,
          "bichromatic": false, "num_queries": 4, "k": 8, "seed": 0,
          "params": {...},
          "algorithms": {
            "naive":   {"mean_seconds": ..., "best_seconds": ...,
                        "per_query_seconds": ..., "repetitions_seconds": [...],
                        "rank_refinements": ..., "validated": true,
                        "speedup_vs_naive": 1.0},
            "static":  {...}, "dynamic": {...},
            "indexed": {..., "index_build_seconds": ...}
          }
        }, ...
      ]
    }

``validated`` is ``true`` only when the algorithm's batch results were
checked against the naive baseline during the run.

Large-scale workloads add ``naive_sample`` / ``index_params`` to the
workload metadata; their naive timing carries ``sampled_candidates`` and
``estimated_full_seconds`` (the extrapolated exhaustive batch cost that
``speedup_vs_naive`` is computed against), and ``validated`` there means
the exact-rank spot checks plus pairwise algorithm agreement passed.  When
the run used ``--index-cache``, the indexed timing records ``index_cache``
as ``"hit"`` or ``"miss"``.

Runs with a ``--workers`` axis record, per algorithm row, the worker
count that executed its timed batches (``workers``, 1 = in-process) and —
for parallel rows, keyed ``name@wN`` — the direct process-scaling factor
``speedup_vs_serial`` (same-run single-process batch time over this
row's) plus ``ipc_bytes_per_query``, the flat result-payload bytes per
query that crossed the process boundary in one batch (reported by the
shard result codec; shrinks under ``--stats aggregate`` / ``none``,
which the config records as ``stats``).  Parallel rows also carry the
graph-transport facts: ``graph_shared`` (``true`` when the workers
mapped the shared-memory CSR segment instead of unpickling a private
graph copy) and ``startup_payload_bytes`` (the pickled worker init
payload — under the shared transport the graph contributes a fixed
~200-byte handle instead of its full pickle; an adopted hub index's
snapshot still travels by value).  Workloads that ran a parallel
pass additionally carry ``parallel_consistent``: ``true`` iff every
parallel batch was rank-identical to its sequential reference; when the
run also *built* a hub index (no cache hit), ``parallel_index_consistent``
records that a pool-built index exported byte-identical state to the
sequential build.  All additions are backwards-compatible optional
fields, so the schema version stays 1.
"""

from __future__ import annotations

import datetime
import json
import platform
import sys
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.bench.harness import WorkloadResult

__all__ = ["SCHEMA_VERSION", "build_report", "write_report", "render_table"]

SCHEMA_VERSION = 1

#: Default report location — the repo-root trajectory file every later
#: optimisation PR is judged against.
DEFAULT_REPORT_NAME = "BENCH_core.json"


def build_report(
    results: List[WorkloadResult],
    config: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the JSON-ready report document."""
    created = datetime.datetime.now(datetime.timezone.utc)
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "repro.bench",
        "created_at": created.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "config": dict(config or {}),
        "workloads": [result.as_dict() for result in results],
    }


def write_report(
    report: Dict[str, object],
    path: Union[str, Path] = DEFAULT_REPORT_NAME,
) -> Path:
    """Write ``report`` as pretty-printed JSON; returns the resolved path."""
    target = Path(path)
    target.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return target.resolve()


def _format_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def render_table(report: Dict[str, object]) -> str:
    """A compact per-workload summary table for the CLI."""
    lines = []
    header = (
        f"{'workload':<20} {'algo':<12} {'mean/query':>10} "
        f"{'speedup':>8} {'vs-w1':>7} {'refine':>7} {'ok':>3}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    any_sampled = False
    for workload in report["workloads"]:
        for name, timing in workload["algorithms"].items():
            if timing.get("skipped"):
                lines.append(
                    f"{workload['name']:<20} {name:<12} {'skipped':>10}"
                )
                continue
            label = name
            if timing.get("sampled_candidates") is not None:
                label = f"{name}*"
                any_sampled = True
            speedup = timing.get("speedup_vs_naive")
            serial = timing.get("speedup_vs_serial")
            validated = timing.get("validated")
            refinements = timing.get("rank_refinements")
            lines.append(
                f"{workload['name']:<20} {label:<12} "
                f"{_format_seconds(timing.get('per_query_seconds')):>10} "
                f"{(f'{speedup:.1f}x' if speedup else '-'):>8} "
                f"{(f'{serial:.2f}x' if serial else '-'):>7} "
                f"{(refinements if refinements is not None else '-'):>7} "
                f"{('y' if validated else '-'):>3}"
            )
    if any_sampled:
        lines.append(
            "* baseline timed on a candidate sample; speedups are vs its "
            "extrapolated exhaustive cost"
        )
    return "\n".join(lines)
