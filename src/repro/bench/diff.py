"""``python -m repro.bench.diff`` — compare two benchmark reports exactly.

Reports hold deterministic work counters (see :mod:`repro.bench.report`),
so there is no tolerance.  The exit status is

* ``1`` when a workload both reports share has different metadata (graph
  size, queries, ``k``, seed, parameters), or a row both share is not
  equal: a counter moved, or the row is skipped on one side only;
* ``2`` when a report cannot be read or has another ``schema_version``;
* ``0`` otherwise.

Workloads and rows present in only one report are listed as suite changes
(:func:`summarize_membership`) and never fail the diff: suites grow and
shrink.  A change that moves counters on purpose regenerates the
committed trajectory and shows what moved::

    python -m repro.bench --scale default,large,huge --output NEW.json
    python -m repro.bench.diff BENCH_core.json NEW.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.bench.report import SCHEMA_VERSION

__all__ = [
    "compare_reports",
    "render_diff_table",
    "summarize_membership",
    "main",
]


class _ReportError(Exception):
    """A file that is not a readable report of this schema version."""


def _load_report(path: str) -> Dict[str, object]:
    try:
        report = json.loads(Path(path).read_text())
    except OSError as exc:
        raise _ReportError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _ReportError(f"{path} is not valid JSON: {exc}")
    if not isinstance(report, dict) or "workloads" not in report:
        raise _ReportError(f"{path} is not a repro.bench report")
    if report.get("schema_version") != SCHEMA_VERSION:
        raise _ReportError(
            f"{path} has schema_version {report.get('schema_version')!r}; "
            f"this diff compares version {SCHEMA_VERSION} only "
            "(regenerate it with python -m repro.bench)"
        )
    return report


def _workloads_by_name(report: Dict[str, object]) -> "Dict[str, dict]":
    return {workload["name"]: workload for workload in report["workloads"]}


def _differences(old: Dict[str, object], new: Dict[str, object]) -> List[str]:
    """``key: old -> new`` for every top-level key whose value differs."""
    return [
        f"{key}: {old.get(key, '-')!r} -> {new.get(key, '-')!r}"
        for key in sorted(set(old) | set(new), key=str)
        if old.get(key) != new.get(key)
    ]


def compare_reports(
    old: Dict[str, object], new: Dict[str, object]
) -> Tuple[List[Dict[str, object]], List[str]]:
    """Compare two reports; returns ``(rows, failures)``.

    Each row describes one ``(workload, algorithm)`` pair with keys
    ``workload``, ``algorithm`` and ``status`` (``same`` / ``CHANGED`` /
    ``new`` / ``removed``).  ``failures`` holds one line per differing
    shared workload's metadata and per ``CHANGED`` row, naming what moved.
    """
    old_workloads = _workloads_by_name(old)
    new_workloads = _workloads_by_name(new)
    rows: List[Dict[str, object]] = []
    failures: List[str] = []

    for name in sorted(set(old_workloads) | set(new_workloads)):
        old_workload = old_workloads.get(name, {})
        new_workload = new_workloads.get(name, {})
        if name in old_workloads and name in new_workloads:
            metadata = _differences(
                {k: v for k, v in old_workload.items() if k != "algorithms"},
                {k: v for k, v in new_workload.items() if k != "algorithms"},
            )
            if metadata:
                failures.append(
                    f"{name}: workload metadata differ ({'; '.join(metadata)})"
                )
        old_rows = old_workload.get("algorithms", {})
        new_rows = new_workload.get("algorithms", {})
        for algorithm in list(old_rows) + [a for a in new_rows if a not in old_rows]:
            old_row = old_rows.get(algorithm)
            new_row = new_rows.get(algorithm)
            if new_row is None:
                status = "removed"
            elif old_row is None:
                status = "new"
            elif old_row == new_row:
                status = "same"
            else:
                status = "CHANGED"
                if "counters" in old_row and "counters" in new_row:
                    moved = _differences(old_row["counters"], new_row["counters"])
                else:
                    moved = _differences(old_row, new_row)
                failures.append(f"{name}/{algorithm}: {'; '.join(moved)}")
            rows.append(
                {"workload": name, "algorithm": algorithm, "status": status}
            )
    return rows, failures


def summarize_membership(
    old: Dict[str, object], new: Dict[str, object]
) -> Dict[str, List[str]]:
    """Explicit workload/row additions and removals between two reports.

    Returns ``{"added_workloads", "removed_workloads", "added_rows",
    "removed_rows"}`` — the last two are ``workload/algorithm`` pairs for
    workloads both reports share (rows a whole added/removed workload
    brings along are covered by the workload entry, not repeated).  None
    of these ever fail a diff; they exist so suite growth and shrinkage
    are reported as deliberate changes instead of hiding inside the
    per-row table.
    """
    old_workloads = _workloads_by_name(old)
    new_workloads = _workloads_by_name(new)
    added_rows: List[str] = []
    removed_rows: List[str] = []
    for name in sorted(set(old_workloads) & set(new_workloads)):
        old_algorithms = old_workloads[name].get("algorithms", {})
        new_algorithms = new_workloads[name].get("algorithms", {})
        added_rows.extend(
            f"{name}/{algorithm}"
            for algorithm in new_algorithms
            if algorithm not in old_algorithms
        )
        removed_rows.extend(
            f"{name}/{algorithm}"
            for algorithm in old_algorithms
            if algorithm not in new_algorithms
        )
    return {
        "added_workloads": sorted(set(new_workloads) - set(old_workloads)),
        "removed_workloads": sorted(set(old_workloads) - set(new_workloads)),
        "added_rows": sorted(added_rows),
        "removed_rows": sorted(removed_rows),
    }


def render_diff_table(rows: List[Dict[str, object]]) -> str:
    """The per-workload/per-algorithm comparison table."""
    header = f"{'workload':<24} {'algo':<8} {'status':<8}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['workload']:<24} {row['algorithm']:<8} {row['status']:<8}"
        )
    return "\n".join(lines)


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.diff",
        description=(
            "Compare two repro.bench reports exactly: exit 1 when a shared "
            "workload's metadata or a shared row's counters differ, 2 when "
            "a report is unreadable or of another schema version."
        ),
    )
    parser.add_argument("old", help="baseline report (e.g. committed BENCH_core.json)")
    parser.add_argument("new", help="candidate report to judge")
    parser.add_argument(
        "--quiet", action="store_true", help="print only failures, not the table"
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parse_args(argv)
    try:
        old = _load_report(args.old)
        new = _load_report(args.new)
    except _ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows, failures = compare_reports(old, new)
    if not args.quiet:
        print(render_diff_table(rows))
        compared = sum(1 for row in rows if row["status"] in ("same", "CHANGED"))
        print(
            f"\ncompared {compared} rows across "
            f"{len({row['workload'] for row in rows})} workloads"
        )
        membership = summarize_membership(old, new)
        if any(membership.values()):
            print("\nsuite changes (never fail the diff):")
            for key, items in membership.items():
                if items:
                    print(f"  {key.replace('_', ' ')}: {', '.join(items)}")
    if failures:
        print(f"\nDIFFERENCES ({len(failures)}):", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    if not args.quiet:
        print("no differences")
    return 0


if __name__ == "__main__":
    sys.exit(main())
