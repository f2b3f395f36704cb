"""Prometheus text exposition (format version 0.0.4) for the registry.

:func:`format_prometheus` renders every instrument in a
:class:`~repro.obs.metrics.MetricsRegistry` in the plain-text format
Prometheus scrapes: one ``# TYPE`` line per metric family, counters and
gauges as single samples, histograms as summaries with
p50/p95/p99 ``quantile`` labels plus ``_sum`` and ``_count`` series.

Metric names here use dots and slashes (``serve.latency.entity_linking``);
Prometheus allows only ``[a-zA-Z0-9_:]``, so :func:`sanitize_name` maps
every other character to ``_``.  The original name is preserved in a
``# HELP`` line so dashboards can still show it.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: The Content-Type Prometheus expects from a scrape target.
CONTENT_TYPE = "text/plain; version=0.0.4"

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")
_QUANTILES = ((0.5, 50), (0.95, 95), (0.99, 99))


def sanitize_name(name: str) -> str:
    """Map a dotted/slashed metric name onto the Prometheus charset."""
    cleaned = _INVALID.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _format_value(value: float) -> str:
    """Render a float the way Prometheus parsers expect (no exponents
    needed for our magnitudes; integers lose the trailing ``.0``)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def format_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """Render ``registry`` (default: the global one) as exposition text."""
    if registry is None:
        from repro.obs.metrics import get_registry

        registry = get_registry()
    lines: List[str] = []
    for name in registry.names():
        instrument = registry.get(name)
        if instrument is None:
            continue
        metric = sanitize_name(name)
        lines.append(f"# HELP {metric} {name}")
        if isinstance(instrument, Histogram):
            lines.append(f"# TYPE {metric} summary")
            for quantile, p in _QUANTILES:
                lines.append(f'{metric}{{quantile="{quantile}"}} '
                             f"{_format_value(instrument.percentile(p))}")
            lines.append(f"{metric}_sum {_format_value(instrument.total)}")
            lines.append(f"{metric}_count {instrument.count}")
        elif isinstance(instrument, Counter):
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_format_value(instrument.value)}")
        elif isinstance(instrument, Gauge):
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(instrument.value)}")
    return "\n".join(lines) + "\n" if lines else ""
