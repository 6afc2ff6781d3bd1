"""Benchmark report assembly and the ``BENCH_core.json`` writer.

The JSON schema (``schema_version`` 2)::

    {
      "schema_version": 2,
      "generated_by": "repro.bench",
      "created_at": "2026-10-18T12:00:00Z",       # UTC, ISO-8601
      "environment": {"python": "...", "platform": "..."},
      "config": {"scale": "default", "seed": 0, "families": [...]},
      "workloads": [
        {
          "name": "gnp-n120", "family": "gnp",   # Workload.describe()
          "num_nodes": 120, "num_edges": 362, "directed": false,
          "bichromatic": false, "num_queries": 4, "k": 8, "seed": 0,
          "params": {...},
          "algorithms": {
            "naive":   {"counters": {"rank_refinements": 476, ...}},
            "static":  {"counters": {...}},
            "dynamic": {"counters": {...}},
            "indexed": {"counters": {...}}      # or {"skipped": "why"}
          }
        }, ...
      ]
    }

A row's ``counters`` are the summed :class:`~repro.core.types.QueryStats`
fields of one run of the workload's query batch, ``elapsed_seconds``
left out and ``bound_wins`` keys sorted.  A report is only written when
every row passed in-run validation.  Large-scale workloads add
``naive_sample`` / ``index_params`` to their metadata.

Nothing under ``workloads`` depends on the machine or the clock, so two
runs of the same code write byte-identical ``workloads`` sections;
``created_at`` and ``environment`` sit outside it.
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

SCHEMA_VERSION = 2

#: Default report location — the repo-root trajectory file every later
#: change to the algorithms is compared against.
DEFAULT_REPORT_NAME = "BENCH_core.json"

#: ``(column title, counter)`` pairs shown by :func:`render_table`.
_TABLE_COLUMNS = (
    ("refine", "rank_refinements"),
    ("settled", "refinement_nodes_settled"),
    ("pops", "tree_pops"),
    ("bound", "pruned_by_bound"),
    ("index", "answered_by_index"),
    ("check", "pruned_by_check_dictionary"),
)


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


def render_table(report: Dict[str, object]) -> str:
    """A compact per-workload counter table for the CLI."""
    header = f"{'workload':<20} {'algo':<8}" + "".join(
        f" {title:>9}" for title, _ in _TABLE_COLUMNS
    )
    lines = [header, "-" * len(header)]
    for workload in report["workloads"]:
        for name, row in workload["algorithms"].items():
            prefix = f"{workload['name']:<20} {name:<8}"
            if "skipped" in row:
                lines.append(f"{prefix} {'skipped':>9}")
                continue
            lines.append(prefix + "".join(
                f" {row['counters'][counter]:>9}" for _, counter in _TABLE_COLUMNS
            ))
    return "\n".join(lines)
