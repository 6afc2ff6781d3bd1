"""Benchmark subsystem: seeded workloads, timing harness, trajectory report.

The paper's central claim is performance, so this package supplies the
measurement infrastructure the reproduction is judged against:

* :mod:`repro.bench.workloads` — seeded, parametric workload generators
  (path / grid / G(n,p) / power-law / bichromatic / road-like lattice)
  plus :func:`~repro.bench.workloads.dataset_workload` for real
  SNAP/DIMACS files;
* :mod:`repro.bench.harness` — warmup-and-repetition timing of all four
  :class:`~repro.core.config.AlgorithmKind`\\ s with in-run cross-validation
  against the naive baseline;
* :mod:`repro.bench.report` — the ``BENCH_core.json`` schema and writer;
* :mod:`repro.bench.diff` — ``python -m repro.bench.diff OLD NEW``, the
  report comparator CI uses as its speed-regression gate;
* ``python -m repro.bench`` — the CLI (see :mod:`repro.bench.__main__`),
  with ``--smoke`` for the CI-sized run, ``--scale default,large,huge``
  up to the shared-memory-worker lattice tier (sampled naive baseline),
  ``--dataset`` for real edge-list/DIMACS files and ``--index-cache``
  for hub-index warm restarts.
"""

from repro.bench.harness import AlgorithmTiming, WorkloadResult, run_suite, run_workload
from repro.bench.report import build_report, render_table, write_report
from repro.bench.workloads import (
    WORKLOAD_FAMILIES,
    Workload,
    bichromatic_workload,
    build_suite,
    dataset_workload,
    default_suite,
    gnp_workload,
    grid_workload,
    huge_suite,
    large_suite,
    lattice_workload,
    path_workload,
    powerlaw_workload,
    smoke_suite,
)

__all__ = [
    "AlgorithmTiming",
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
    "smoke_suite",
    "default_suite",
    "large_suite",
    "huge_suite",
]
