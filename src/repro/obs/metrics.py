"""Metric primitives and the process-global registry.

Three instrument kinds — :class:`Counter`, :class:`Gauge` and
:class:`Histogram` — are created on demand through a
:class:`MetricsRegistry`.  The module-level default registry is a
:class:`NullRegistry` whose instruments are shared no-op singletons, so
instrumented code pays one dictionary-free method call when observability
is off.  Call :func:`enable_metrics` to swap in a recording registry and
:func:`format_metrics` to render it in the plain-text table style of
``repro.evaluation.reporting``.

Instruments record values; they never read a clock.  A duration is
measured by a :func:`repro.obs.trace` span and recorded with
``histogram(name).observe(span.seconds)``.  :func:`percentile` is the one
percentile reduction, shared by :class:`Histogram` and the journal summary.

None of the instruments touch any random-number generator: enabling or
disabling metrics never changes seeded results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of ``samples``, ``p`` in [0, 100]
    (0.0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


class Counter:
    """A monotonically increasing count (steps taken, events seen)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0


class Gauge:
    """A value that goes up and down (current learning rate, queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """A sample distribution with count/total/mean and percentile summaries."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return float(sum(self.samples))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.samples else 0.0

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, ``p`` in [0, 100]."""
        return percentile(self.samples, p)

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "total": self.total,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "min": self.minimum,
            "max": self.maximum,
        }

    def reset(self) -> None:
        self.samples.clear()


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Name → instrument store; instruments are created on first request."""

    enabled = True

    def __init__(self):
        self._instruments: Dict[str, Instrument] = {}

    def _get(self, name: str, factory) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory(name)
            self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Snapshot every instrument as plain numbers (for JSON dumps)."""
        snapshot: Dict[str, Dict[str, float]] = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                snapshot[name] = instrument.summary()
            else:
                snapshot[name] = {"value": instrument.value}
        return snapshot

    def reset(self) -> None:
        for instrument in self._instruments.values():
            instrument.reset()


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class NullRegistry(MetricsRegistry):
    """The zero-cost default: every request returns a shared no-op."""

    enabled = False

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> Histogram:
        return _NULL_HISTOGRAM

_registry: MetricsRegistry = NullRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry (a no-op :class:`NullRegistry` by default)."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` globally; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous


def enable_metrics() -> MetricsRegistry:
    """Install and return a fresh recording registry."""
    registry = MetricsRegistry()
    set_registry(registry)
    return registry


def disable_metrics() -> None:
    """Restore the no-op default registry."""
    set_registry(NullRegistry())


def format_metrics(registry: Optional[MetricsRegistry] = None,
                   name_width: int = 36) -> str:
    """Plain-text metrics table (``repro.evaluation.reporting`` style)."""
    registry = registry if registry is not None else _registry
    lines = [f"{'Metric':{name_width}s}{'Count':>8s}{'Total':>12s}"
             f"{'Mean':>12s}{'P50':>12s}{'P95':>12s}{'P99':>12s}"]
    for name in registry.names():
        instrument = registry.get(name)
        if isinstance(instrument, Histogram):
            s = instrument.summary()
            lines.append(f"{name:{name_width}s}{int(s['count']):8d}{s['total']:12.4f}"
                         f"{s['mean']:12.4f}{s['p50']:12.4f}{s['p95']:12.4f}"
                         f"{s['p99']:12.4f}")
        else:
            lines.append(f"{name:{name_width}s}{'':8s}{instrument.value:12.4f}")
    return "\n".join(lines)
