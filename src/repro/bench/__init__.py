"""Benchmark subsystem: seeded workloads, work-counter harness, trajectory report.

This package reproduces the paper's machine-independent experiment — how
much work each algorithm does (rank refinements, settled nodes, pruning
and index hits) on the same query batch:

* :mod:`repro.bench.workloads` — seeded, parametric workload generators
  (path / grid / G(n,p) / power-law / bichromatic / road-like lattice)
  plus :func:`~repro.bench.workloads.dataset_workload` for real
  SNAP/DIMACS files;
* :mod:`repro.bench.harness` — one run of each workload's batch per
  :class:`~repro.core.config.AlgorithmKind`, summing its
  :class:`~repro.core.types.QueryStats` counters, with in-run
  cross-validation;
* :mod:`repro.bench.report` — the ``BENCH_core.json`` schema and writer;
* :mod:`repro.bench.diff` — ``python -m repro.bench.diff OLD NEW``, the
  exact report comparator;
* ``python -m repro.bench`` — the CLI (see :mod:`repro.bench.__main__`),
  with ``--scale smoke|default|large|huge`` and ``--dataset`` for real
  edge-list/DIMACS files.

End-to-end speed is measured separately, by ``e2ebench/``.
"""

from repro.bench.harness import AlgorithmCounters, WorkloadResult, run_suite, run_workload
from repro.bench.report import build_report, render_table, write_report
from repro.bench.workloads import (
    WORKLOAD_FAMILIES,
    Workload,
    bichromatic_workload,
    build_suite,
    dataset_workload,
    gnp_workload,
    grid_workload,
    lattice_workload,
    path_workload,
    powerlaw_workload,
)

__all__ = [
    "AlgorithmCounters",
    "WorkloadResult",
    "run_workload",
    "run_suite",
    "build_report",
    "write_report",
    "render_table",
    "Workload",
    "WORKLOAD_FAMILIES",
    "path_workload",
    "grid_workload",
    "gnp_workload",
    "powerlaw_workload",
    "bichromatic_workload",
    "lattice_workload",
    "dataset_workload",
    "build_suite",
]
