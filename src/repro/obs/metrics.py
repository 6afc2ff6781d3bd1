"""Thread-safe metrics primitives with Prometheus text exposition.

One dependency-free registry that every layer of the stack (engine, shard
planner, worker pool, journal, server) writes into, replacing the ad-hoc
per-object counters that previously had to be collected by hand through
``stats``/``health`` op payloads.  Three instrument types:

* :class:`Counter` — monotone float, ``inc(amount)``;
* :class:`Gauge` — settable float, ``set(value)`` / ``inc`` / ``dec``;
* :class:`Histogram` — fixed cumulative buckets, ``observe(value)``.

Each family optionally declares label names;
``family.labels(path="parallel")`` returns (and memoises) the child for
that label combination.  A family with no labels *is* its own child —
``family.inc()`` works directly.

Concurrency: family creation takes the registry lock; every child guards its
hot-path mutation with its own ``threading.Lock``, so increments from the
server's client threads and the batcher thread sum exactly.  Cross-process
aggregation is deliberate non-magic: worker processes own private default
registries, and the parent-side pool records everything observable at the
IPC boundary (bytes, latencies, crashes), which is where cross-layer cost
attribution actually lives.

Disabled mode: :data:`NULL_REGISTRY` (or any ``MetricsRegistry(enabled=
False)``) hands out one shared no-op instrument, so instrumented hot paths
cost a single attribute call and no allocation when observability is off.

``render()`` emits the Prometheus text exposition format (``# HELP`` /
``# TYPE`` / samples, histogram ``_bucket{le=...}`` + ``_sum`` + ``_count``)
without any client library, sorted for deterministic golden-testing.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import ReproError

__all__ = [
    "MetricsError",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_REGISTRY",
    "get_registry",
    "DEFAULT_LATENCY_BUCKETS",
]


class MetricsError(ReproError, ValueError):
    """Invalid metric name, label set, or conflicting re-registration."""


#: Default buckets for latency histograms, in seconds (0.5 ms .. 10 s).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(value: float) -> str:
    # Prometheus accepts integer or float literals; emit the shortest
    # faithful form so golden tests read naturally.
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        '%s="%s"' % (name, _escape_label(value))
        for name, value in zip(names, values)
    )
    return "{%s}" % inner


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


# ----------------------------------------------------------------------
# Children (one per label combination; the hot-path objects)
# ----------------------------------------------------------------------
class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError("counters are monotone; inc() amount must be >= 0")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class _HistogramChild:
    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        bounds = self._bounds
        index = len(bounds)
        for i, bound in enumerate(bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    def cumulative_counts(self) -> Tuple[int, ...]:
        """Cumulative per-bucket counts (including +Inf), le-inclusive."""
        with self._lock:
            raw = list(self._counts)
        out = []
        running = 0
        for count in raw:
            running += count
            out.append(running)
        return tuple(out)


class _NoopChild:
    """Shared instrument for disabled registries: every method is a no-op."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, **labelvalues: str) -> "_NoopChild":
        return self

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def total(self) -> float:
        return 0.0

    def cumulative_counts(self) -> Tuple[int, ...]:
        return ()


_NOOP_CHILD = _NoopChild()


# ----------------------------------------------------------------------
# Families
# ----------------------------------------------------------------------
class _Family:
    kind = ""
    _child_cls = _CounterChild

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not labelnames:
            # A label-less family is its own single child.
            self._children[()] = self._make_child()

    def _make_child(self):
        return self._child_cls()

    def labels(self, **labelvalues: str):
        if set(labelvalues) != set(self.labelnames):
            raise MetricsError(
                "metric %r takes labels %r, got %r"
                % (self.name, self.labelnames, tuple(sorted(labelvalues)))
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def _default_child(self):
        if self.labelnames:
            raise MetricsError(
                "metric %r is labelled (%r); call .labels(...) first"
                % (self.name, self.labelnames)
            )
        return self._children[()]

    def samples(self) -> Iterable[Tuple[str, Tuple[str, ...], object]]:
        with self._lock:
            items = sorted(self._children.items())
        return items

    def render(self) -> str:
        raise NotImplementedError


class Counter(_Family):
    kind = "counter"
    _child_cls = _CounterChild

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value

    def render(self) -> str:
        lines = [
            "# HELP %s %s" % (self.name, self.help),
            "# TYPE %s counter" % self.name,
        ]
        for key, child in self.samples():
            lines.append(
                "%s%s %s"
                % (
                    self.name,
                    _format_labels(self.labelnames, key),
                    _format_value(child.value),
                )
            )
        return "\n".join(lines)


class Gauge(_Family):
    kind = "gauge"
    _child_cls = _GaugeChild

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        return self._default_child().value

    def render(self) -> str:
        lines = [
            "# HELP %s %s" % (self.name, self.help),
            "# TYPE %s gauge" % self.name,
        ]
        for key, child in self.samples():
            lines.append(
                "%s%s %s"
                % (
                    self.name,
                    _format_labels(self.labelnames, key),
                    _format_value(child.value),
                )
            )
        return "\n".join(lines)


class Histogram(_Family):
    kind = "histogram"
    _child_cls = _HistogramChild

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        buckets: Tuple[float, ...],
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricsError("histogram %r needs at least one bucket" % name)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricsError(
                "histogram %r buckets must be strictly increasing: %r"
                % (name, bounds)
            )
        self.buckets = bounds
        super().__init__(name, help, labelnames)

    def _make_child(self):
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    @property
    def count(self) -> int:
        return self._default_child().count

    @property
    def total(self) -> float:
        return self._default_child().total

    def cumulative_counts(self) -> Tuple[int, ...]:
        return self._default_child().cumulative_counts()

    def render(self) -> str:
        lines = [
            "# HELP %s %s" % (self.name, self.help),
            "# TYPE %s histogram" % self.name,
        ]
        bounds = [_format_value(b) for b in self.buckets] + ["+Inf"]
        for key, child in self.samples():
            cumulative = child.cumulative_counts()
            for bound, count in zip(bounds, cumulative):
                names = self.labelnames + ("le",)
                values = key + (bound,)
                lines.append(
                    "%s_bucket%s %d"
                    % (self.name, _format_labels(names, values), count)
                )
            labels = _format_labels(self.labelnames, key)
            lines.append(
                "%s_sum%s %s" % (self.name, labels, _format_value(child.total))
            )
            lines.append("%s_count%s %d" % (self.name, labels, child.count))
        return "\n".join(lines)


class _NoopFamily:
    """Family stand-in handed out by disabled registries."""

    __slots__ = ()

    def labels(self, **labelvalues: str) -> _NoopChild:
        return _NOOP_CHILD

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def total(self) -> float:
        return 0.0


_NOOP_FAMILY = _NoopFamily()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """A named collection of metric families, renderable as Prometheus text.

    Registration is idempotent: asking for an existing name with the same
    type and label set returns the existing family (so the engine and the
    pool can both declare ``repro_worker_crashes_total`` against a shared
    registry and write to one instrument).  Conflicting redeclarations
    raise :class:`MetricsError` — silently forking a family would split
    its samples.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self.enabled = enabled

    # -- registration ---------------------------------------------------
    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return self._register(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        return self._register(Histogram, name, help, labels, buckets=buckets)

    def _register(self, cls, name, help, labels, buckets=None):
        if not self.enabled:
            return _NOOP_FAMILY
        if not _NAME_RE.match(name or ""):
            raise MetricsError("invalid metric name: %r" % (name,))
        labelnames = tuple(labels)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise MetricsError(
                    "invalid label name %r on metric %r" % (label, name)
                )
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != labelnames:
                    raise MetricsError(
                        "metric %r already registered as %s%r; cannot "
                        "re-register as %s%r"
                        % (
                            name,
                            existing.kind,
                            existing.labelnames,
                            cls.kind,
                            labelnames,
                        )
                    )
                if (
                    buckets is not None
                    and existing.buckets != tuple(float(b) for b in buckets)
                ):
                    raise MetricsError(
                        "histogram %r already registered with buckets %r"
                        % (name, existing.buckets)
                    )
                return existing
            if cls is Histogram:
                family = cls(name, help, labelnames, tuple(buckets))
            else:
                family = cls(name, help, labelnames)
            self._families[name] = family
            return family

    # -- reads ----------------------------------------------------------
    def get(self, name: str) -> Optional[_Family]:
        """The family registered under ``name``, or ``None``."""
        with self._lock:
            return self._families.get(name)

    def sample(self, name: str, labels: Optional[dict] = None) -> float:
        """Current value of a counter/gauge sample; ``0.0`` when absent.

        The convenience read the byte-compatible ``stats``/``health`` op
        payloads are derived through.
        """
        family = self.get(name)
        if family is None:
            return 0.0
        try:
            child = family.labels(**labels) if labels else family._default_child()
        except MetricsError:
            return 0.0
        return child.value

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        with self._lock:
            families = sorted(self._families.items())
        blocks = [family.render() for _, family in families]
        return "\n".join(blocks) + ("\n" if blocks else "")


#: A permanently-disabled registry: hand this to a component to silence it.
NULL_REGISTRY = MetricsRegistry(enabled=False)

# The process-global default registry, used by components that were not
# handed an explicit one (standalone pools, journals opened directly).
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default :class:`MetricsRegistry`."""
    return _DEFAULT_REGISTRY
