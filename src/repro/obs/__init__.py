"""`repro.obs` — the unified metrics + tracing substrate.

Two halves:

* :mod:`repro.obs.metrics` — a dependency-free, thread-safe
  :class:`MetricsRegistry` (counters / gauges / fixed-bucket histograms
  with labels) with Prometheus text exposition.  Components accept an
  injectable ``registry=``; standalone objects fall back to the
  process-global default from :func:`get_registry`.
* :mod:`repro.obs.trace` — a per-batch span :class:`Tracer` whose trace
  ids ride the worker task tuples so worker-side spans stitch back into
  one tree per batch (``engine.last_trace``, serve ``trace`` op).

See the README "Observability" section for the metric catalogue and the
trace JSON schema.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    NULL_REGISTRY,
    get_registry,
)
from repro.obs.trace import NOOP_SPAN, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "Tracer",
    "NOOP_SPAN",
]
