"""``python -m repro.bench`` — the benchmark CLI.

Every algorithm runs the workload's query batch once and its row records
the batch's summed work counters (see :mod:`repro.bench.harness` for the
fixed protocol and the in-run validation).

Examples
--------
Run the standard suite and write ``BENCH_core.json`` in the current
directory::

    python -m repro.bench

Regenerate the committed trajectory (run it from the repo root)::

    python -m repro.bench --scale default,large,huge

The tiny suite, or a subset of families::

    python -m repro.bench --scale smoke
    python -m repro.bench --families gnp,powerlaw

A real dataset file (SNAP/KONECT edge list, DIMACS ``.gr`` or repro
JSON; format auto-detected) instead of the synthetic suite::

    python -m repro.bench --dataset roadNet-PA.txt

Exit status is 1 when any algorithm disagrees with the naive baseline
(or, on workloads with ``naive_sample``, with the sampled exact ranks or
the algorithm validated before it) and 2 on a bad workload or dataset;
no report is written then.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.harness import run_suite
from repro.bench.report import (
    DEFAULT_REPORT_NAME,
    build_report,
    render_table,
    write_report,
)
from repro.bench.workloads import WORKLOAD_FAMILIES, build_suite, dataset_workload
from repro.errors import CrossValidationError, DatasetError, WorkloadError


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=(
            "Count the work of the four reverse k-ranks algorithms "
            "(naive/static/dynamic/indexed) on seeded synthetic workloads, "
            "validate them against each other and write the BENCH_core.json "
            "trajectory report."
        ),
    )
    parser.add_argument(
        "--scale",
        default="default",
        help=(
            "workload scale(s): smoke, default, large, huge, or a "
            "comma-separated combination like default,large (default: "
            "default)"
        ),
    )
    parser.add_argument(
        "--families",
        default=None,
        help=(
            "comma-separated workload families to run "
            f"(default: all of {','.join(WORKLOAD_FAMILIES)})"
        ),
    )
    parser.add_argument(
        "--dataset",
        default=None,
        metavar="PATH",
        help=(
            "benchmark a real dataset file instead of the synthetic suite: "
            "a SNAP/KONECT edge list, DIMACS .gr or repro JSON document "
            "(format auto-detected; graphs over 512 nodes skip naive and "
            "get sampled exact-rank checks and 'auto' hub budgets)"
        ),
    )
    parser.add_argument(
        "--directed",
        action="store_true",
        help="with --dataset: interpret the dataset's edges as directed",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="workload generator seed (default: 0)"
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_REPORT_NAME,
        help=f"report path (default: {DEFAULT_REPORT_NAME})",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress and table output"
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _parse_args(argv)
    families = (
        [name.strip() for name in args.families.split(",") if name.strip()]
        if args.families
        else None
    )
    progress = None if args.quiet else (lambda line: print(line, flush=True))

    try:
        if args.dataset is not None:
            workloads = [
                dataset_workload(
                    args.dataset, directed=args.directed, seed=args.seed
                )
            ]
        else:
            workloads = build_suite(
                families=families, scale=args.scale, seed=args.seed
            )
        results = run_suite(workloads, progress=progress)
    except (WorkloadError, DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrossValidationError as exc:
        print(f"CROSS-VALIDATION FAILURE: {exc}", file=sys.stderr)
        return 1

    config = {"scale": args.scale, "seed": args.seed}
    if args.dataset is not None:
        config.update(scale="dataset", dataset=args.dataset, directed=args.directed)
    config["families"] = [workload.family for workload in workloads]
    report = build_report(results, config=config)
    path = write_report(report, args.output)
    if not args.quiet:
        print()
        print(render_table(report))
        print(f"\nreport written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
