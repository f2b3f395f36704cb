"""Observability: metrics, tracing, trace contexts, profiling, journal.

A dependency-free measurement layer for the training / inference stack:

- :mod:`repro.obs.tracing` — ``with trace("a/b/c") as span:``, the one
  timing primitive: the span measures its region (``span.seconds``, on or
  off) and records that interval into per-path aggregate totals and
  request-scoped ``TraceContext`` records
  (trace id + parent-linked spans with start/end offsets) carried in a
  ``contextvars.ContextVar`` and handed across threads with
  ``capture_context`` / ``adopt_context``;
- :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / ``Histogram``
  instruments behind a process-global registry (a no-op ``NullRegistry``
  by default, so instrumented code is free when observability is off).
  Spans measure; histograms record:
  ``registry.histogram(name).observe(span.seconds)``;
- :mod:`repro.obs.profiler` — opt-in per-layer forward/backward time and
  peak-memory attribution over any ``Module`` tree, rendered as a
  flame-style tree or per-layer table;
- :mod:`repro.obs.prometheus` — ``format_prometheus(registry)`` text
  exposition (``text/plain; version=0.0.4``) for standard scrapers;
- :mod:`repro.obs.journal` — a JSONL ``RunJournal`` (header + per-step +
  probe + trace + request events) replayable for convergence plots and
  ``repro.cli report``.

Every clock read goes through :mod:`repro.obs.clock` (lint rule CLK001),
and nothing here touches a random number generator, so seeded results are
bit-identical with instrumentation on or off.

Usage::

    from repro import obs

    registry = obs.enable_metrics()
    tracer = obs.enable_tracing()
    with obs.start_trace("serve/entity_linking") as ctx:
        with obs.trace("serve/predict") as span:
            ...
        registry.histogram("serve.latency").observe(span.seconds)
    print(obs.format_prometheus(registry))
    print(tracer.report())
"""

from repro.obs.clock import perf_counter, wall_time
from repro.obs.journal import (
    EVENT_HEADER,
    EVENT_PROBE,
    EVENT_REQUEST,
    EVENT_STEP,
    EVENT_TRACE,
    JournalSummary,
    PhaseTiming,
    RunJournal,
    format_journal_summary,
    read_journal,
    summarize_journal,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    disable_metrics,
    enable_metrics,
    format_metrics,
    get_registry,
    set_registry,
)
from repro.obs.profiler import (
    LayerProfiler,
    LayerStats,
    format_layer_table,
    format_profile_tree,
    profile,
)
from repro.obs.prometheus import CONTENT_TYPE, format_prometheus, sanitize_name
from repro.obs.tracing import (
    ContextSnapshot,
    SpanRecord,
    SpanStats,
    TraceContext,
    Tracer,
    adopt_context,
    capture_context,
    current_trace,
    disable_tracing,
    enable_tracing,
    get_tracer,
    new_trace_id,
    set_tracer,
    start_trace,
    trace,
)

__all__ = [
    "perf_counter",
    "wall_time",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "set_registry",
    "enable_metrics",
    "disable_metrics",
    "format_metrics",
    "CONTENT_TYPE",
    "format_prometheus",
    "sanitize_name",
    "SpanStats",
    "SpanRecord",
    "TraceContext",
    "ContextSnapshot",
    "Tracer",
    "trace",
    "start_trace",
    "current_trace",
    "capture_context",
    "adopt_context",
    "new_trace_id",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
    "LayerProfiler",
    "LayerStats",
    "profile",
    "format_profile_tree",
    "format_layer_table",
    "RunJournal",
    "read_journal",
    "summarize_journal",
    "format_journal_summary",
    "JournalSummary",
    "PhaseTiming",
    "EVENT_HEADER",
    "EVENT_STEP",
    "EVENT_PROBE",
    "EVENT_TRACE",
    "EVENT_REQUEST",
]
