"""``python -m repro.bench.diff`` — compare two benchmark trajectory reports.

Reads two ``BENCH_core.json``-style reports, matches workloads by name and
algorithms within them, and prints a per-workload/per-algorithm table of
old vs new timings.  The exit status is non-zero when

* any algorithm in the *new* report slowed down beyond the noise tolerance
  relative to the *old* report (``--tolerance``, default 0.25 = fail above
  a 1.25x slowdown; use ``--tolerance 1.0`` to fail only above 2x), or
* any non-skipped algorithm in the *new* report is **not validated**, any
  workload carries ``parallel_consistent: false``,
  ``parallel_index_consistent: false`` or ``mutation_consistent: false``,
  or an algorithm the old
  report validated is *skipped* in the new one — a correctness
  disagreement (or the harness silently ceasing to run a gated
  algorithm) must never look like a pass.  The harness aborts (exit
  non-zero, no report) when validation actually disagrees, so a report can
  only lack ``validated: true`` when it was generated with
  ``--no-validate``; such timing-only reports deliberately fail this gate.

Workloads or algorithms present in only one report are treated as
*explicit* additions and removals: their rows carry status ``new`` /
``removed``, :func:`summarize_membership` names every one, and the CLI
prints them as a dedicated "suite changes" section — but they never fail
the diff (suites legitimately grow and shrink; a ``--mutation-rate`` run
diffed against a baseline without ``@mut`` rows is additions, not a
regression).  Wall-clock noise on
shared rows is what the tolerance is for.  Only the chosen ``--metric``
and the correctness flags are ever read from a row — fields one side
lacks (``trace_summary`` from a ``--trace`` run, future additions) are
simply ignored, so observability-annotated reports diff cleanly against
plain ones.

Absolute seconds only compare meaningfully between runs on the same
machine, and the default metric is ``best_seconds`` (best of the timed
repetitions): with the suite's 1–3 repetitions a single scheduler hiccup
dominates the mean, and back-to-back runs of identical code can differ by
well over 25% on sub-millisecond ``mean_seconds`` rows while their best
repetitions stay stable.  Single-repetition reports (``--smoke``) have no
best-of to lean on, so diffing them needs a wider ``--tolerance``.  For
cross-machine gates (CI judging a fresh run against a committed
trajectory generated elsewhere) use
``--metric speedup_vs_naive``: each algorithm's speedup over the naive
baseline *of the same run* cancels the hardware out, and a regression is
a speedup *drop* beyond the tolerance.

Examples
--------
Fail CI on a >2x speedup regression against the committed trajectory::

    python -m repro.bench --output BENCH_new.json
    python -m repro.bench.diff BENCH_core.json BENCH_new.json \
        --metric speedup_vs_naive --tolerance 1.0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.bench.report import _format_seconds

__all__ = [
    "compare_reports",
    "render_diff_table",
    "summarize_membership",
    "main",
]

#: Timing metric compared between reports (per whole-batch repetition).
#: Best-of-repetitions, not the mean: at 1-3 repetitions one scheduler
#: hiccup dominates a mean and same-machine diffs of identical code fail.
_DEFAULT_METRIC = "best_seconds"

#: Metrics where larger values are better (regression = value drop).
_HIGHER_IS_BETTER = frozenset({"speedup_vs_naive"})


def _load_report(path: str) -> Dict[str, object]:
    try:
        with open(Path(path)) as handle:
            report = json.load(handle)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}")
    if not isinstance(report, dict) or "workloads" not in report:
        raise SystemExit(f"error: {path} is not a repro.bench report")
    return report


def _workloads_by_name(report: Dict[str, object]) -> "Dict[str, dict]":
    return {workload["name"]: workload for workload in report["workloads"]}


def compare_reports(
    old: Dict[str, object],
    new: Dict[str, object],
    tolerance: float = 0.25,
    metric: str = _DEFAULT_METRIC,
    min_speedup: float = 0.0,
) -> Tuple[List[Dict[str, object]], List[str]]:
    """Compare two reports; returns ``(rows, failures)``.

    Each row describes one ``(workload, algorithm)`` pair with keys
    ``workload``, ``algorithm``, ``old``/``new`` (metric values or
    ``None``), ``ratio`` (the slowdown factor, oriented so that > 1 is
    always worse regardless of the metric's direction) and ``status``
    (``ok`` / ``faster`` / ``SLOWER`` / ``new`` / ``removed`` /
    ``skipped`` / ``ignored`` / ``INVALID``).  ``failures`` holds one
    human-readable line per failing row.

    ``min_speedup`` only applies to higher-is-better metrics: rows whose
    *baseline* value sits below it are compared and shown (status
    ``ignored``) but can never fail.  A row whose committed speedup is
    ~1x has no algorithmic advantage to defend, and its ratio can be
    halved by a single scheduler stall in a 3-repetition mean — on a
    shared CI runner that is pure flake, not regression.
    """
    worse_is_larger = metric not in _HIGHER_IS_BETTER
    old_workloads = _workloads_by_name(old)
    new_workloads = _workloads_by_name(new)
    rows: List[Dict[str, object]] = []
    failures: List[str] = []

    for name in sorted(set(old_workloads) | set(new_workloads)):
        old_algorithms = old_workloads.get(name, {}).get("algorithms", {})
        new_algorithms = new_workloads.get(name, {}).get("algorithms", {})
        if name in new_workloads:
            parallel = new_workloads[name].get("parallel_consistent")
            if parallel is False:
                failures.append(
                    f"{name}: parallel_consistent is false in the new report"
                )
            parallel_index = new_workloads[name].get("parallel_index_consistent")
            if parallel_index is False:
                failures.append(
                    f"{name}: parallel_index_consistent is false in the "
                    "new report"
                )
            mutation = new_workloads[name].get("mutation_consistent")
            if mutation is False:
                failures.append(
                    f"{name}: mutation_consistent is false in the new report"
                )

        for algorithm in list(old_algorithms) + [
            a for a in new_algorithms if a not in old_algorithms
        ]:
            old_timing = old_algorithms.get(algorithm)
            new_timing = new_algorithms.get(algorithm)
            row = {
                "workload": name,
                "algorithm": algorithm,
                "old": (old_timing or {}).get(metric),
                "new": (new_timing or {}).get(metric),
                "ratio": None,
            }
            if (
                new_timing is not None
                and not new_timing.get("skipped")
                and new_timing.get("validated") is not True
            ):
                row["status"] = "INVALID"
                failures.append(
                    f"{name}/{algorithm}: validated is false in the new report"
                    if new_timing.get("validated") is False
                    else f"{name}/{algorithm}: not validated in the new "
                    "report (generated with --no-validate?)"
                )
            elif new_timing is None:
                row["status"] = "removed"
            elif old_timing is None:
                row["status"] = "new"
            elif new_timing.get("skipped") or old_timing.get("skipped"):
                row["status"] = "skipped"
                # A row the baseline validated but the new run skipped is
                # not suite shrinkage — it is the harness silently ceasing
                # to run an algorithm it used to gate.
                if (
                    new_timing.get("skipped")
                    and not old_timing.get("skipped")
                    and old_timing.get("validated") is True
                ):
                    row["status"] = "INVALID"
                    failures.append(
                        f"{name}/{algorithm}: validated in the old report "
                        f"but skipped in the new one "
                        f"({new_timing.get('skipped')!r})"
                    )
            elif not row["old"] or not row["new"]:
                row["status"] = "skipped"
            else:
                if worse_is_larger:
                    ratio = row["new"] / row["old"]
                else:
                    ratio = row["old"] / row["new"]
                row["ratio"] = ratio
                if (
                    not worse_is_larger
                    and min_speedup
                    and row["old"] < min_speedup
                ):
                    row["status"] = "ignored"
                elif ratio > 1.0 + tolerance:
                    row["status"] = "SLOWER"
                    failures.append(
                        f"{name}/{algorithm}: {ratio:.2f}x worse on {metric} "
                        f"({row['old']:.6g} -> {row['new']:.6g}, "
                        f"tolerance {1.0 + tolerance:.2f}x)"
                    )
                elif ratio < 1.0 - tolerance:
                    row["status"] = "faster"
                else:
                    row["status"] = "ok"
            rows.append(row)
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


def _format_value(value: Optional[float], metric: str) -> str:
    if value is None:
        return "-"
    if metric in _HIGHER_IS_BETTER:
        return f"{value:.1f}x"
    return _format_seconds(value)


def render_diff_table(
    rows: List[Dict[str, object]], metric: str = _DEFAULT_METRIC
) -> str:
    """The per-workload/per-algorithm comparison table."""
    header = (
        f"{'workload':<24} {'algo':<8} {'old':>10} {'new':>10} "
        f"{'ratio':>7} {'status':<8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        ratio = row["ratio"]
        lines.append(
            f"{row['workload']:<24} {row['algorithm']:<8} "
            f"{_format_value(row['old'], metric):>10} "
            f"{_format_value(row['new'], metric):>10} "
            f"{(f'{ratio:.2f}x' if ratio is not None else '-'):>7} "
            f"{row['status']:<8}"
        )
    return "\n".join(lines)


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.diff",
        description=(
            "Compare two repro.bench reports and exit non-zero on slowdowns "
            "beyond a noise tolerance or on correctness-flag regressions."
        ),
    )
    parser.add_argument("old", help="baseline report (e.g. committed BENCH_core.json)")
    parser.add_argument("new", help="candidate report to judge")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help=(
            "allowed fractional slowdown before failing; 0.25 fails above "
            "1.25x, 1.0 fails above 2x (default: 0.25)"
        ),
    )
    parser.add_argument(
        "--metric",
        default=_DEFAULT_METRIC,
        choices=(
            "mean_seconds",
            "best_seconds",
            "per_query_seconds",
            "speedup_vs_naive",
        ),
        help=(
            f"field to compare (default: {_DEFAULT_METRIC}); "
            "speedup_vs_naive is machine-independent and the right choice "
            "for cross-machine gates"
        ),
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        metavar="X",
        help=(
            "with --metric speedup_vs_naive: rows whose baseline speedup "
            "is below X are shown but never fail — a near-1x row has no "
            "advantage to defend and its mean-based ratio is dominated by "
            "scheduler noise (default: 0, off)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print only failures, not the table"
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parse_args(argv)
    if args.tolerance < 0:
        print("error: --tolerance must be non-negative", file=sys.stderr)
        return 2
    old = _load_report(args.old)
    new = _load_report(args.new)
    rows, failures = compare_reports(
        old,
        new,
        tolerance=args.tolerance,
        metric=args.metric,
        min_speedup=args.min_speedup,
    )
    if not args.quiet:
        print(render_diff_table(rows, metric=args.metric))
        compared = sum(1 for row in rows if row["ratio"] is not None)
        print(
            f"\ncompared {compared} timings across "
            f"{len({row['workload'] for row in rows})} workloads "
            f"(metric: {args.metric}, tolerance: {args.tolerance:.2f})"
        )
        membership = summarize_membership(old, new)
        if any(membership.values()):
            print("\nsuite changes (never fail the diff):")
            for label, key in (
                ("added workloads", "added_workloads"),
                ("removed workloads", "removed_workloads"),
                ("added rows", "added_rows"),
                ("removed rows", "removed_rows"),
            ):
                if membership[key]:
                    print(f"  {label}: {', '.join(membership[key])}")
    if failures:
        print(
            f"\nREGRESSIONS ({len(failures)}):" , file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    if not args.quiet:
        print("no regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
