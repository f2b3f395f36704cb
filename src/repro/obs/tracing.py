"""Hierarchical tracing spans and request-scoped trace contexts.

:func:`trace` is the one way program code times a region: ``with
trace("pretrain/step/forward") as span:`` reads the monotonic clock once
on enter and once on exit and exposes the difference as ``span.seconds``,
whether tracing is on or off.  Code that keeps the number hands it to its
own sink (a metrics histogram, a journal field).  The same interval feeds
two cooperating layers:

**Aggregate spans** — spans nest: a span opened inside another
becomes its child, and the :class:`Tracer` aggregates ``(count, total
seconds)`` per *path* — the tuple of labels on the span stack — so the
same label under different parents is kept distinct.  The span stack lives
in a :mod:`contextvars` context variable, so concurrent threads (HTTP
handlers, batcher workers) never interleave each other's stacks.

**Trace contexts** — a :class:`TraceContext` gives one *request* (or eval
probe, or any other unit of work) its own identity: a trace id plus a
record of every span that ran on its behalf, each with start/end offsets
from the trace start and a parent link.  ``with start_trace("serve/x")``
installs a context; every ``trace(...)`` span inside records into it.
When work hops threads, :func:`capture_context` on the submitting side and
:func:`adopt_context` on the worker side keep the spans attached to the
originating trace.  Completed traces stream to a journal as one
``EVENT_TRACE`` record.

Tracing is off by default: a span then only measures — one small
allocation, one context-variable read and two clock reads.  Like the
metrics registry, tracing never touches any random-number generator, so
seeded results are bit-identical with tracing on or off.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.clock import perf_counter, wall_time

#: Spans kept per trace context before further spans are counted but
#: dropped — a guard against unbounded growth when a whole training run
#: executes under one context.
TRACE_SPAN_CAP = 10_000

_trace_counter = itertools.count(1)


def new_trace_id() -> str:
    """Process-unique trace id (wall-clock millis + counter; RNG-free)."""
    return f"{int(wall_time() * 1e3):x}-{next(_trace_counter):06x}"


@dataclass
class SpanRecord:
    """One completed (or still-open) span inside a :class:`TraceContext`."""

    name: str
    #: index of the parent span in ``TraceContext.spans`` (-1 = trace root)
    parent: int
    #: seconds after the trace started
    start: float
    #: seconds after the trace started; < 0 while the span is still open
    end: float = -1.0

    @property
    def seconds(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end}


class TraceContext:
    """Identity and span record for one request-scoped unit of work.

    Span mutation is lock-protected: a micro-batcher worker may attribute
    spans to a request trace while the request thread records its own.
    """

    __slots__ = ("trace_id", "name", "started_wall", "spans", "dropped_spans",
                 "wall_seconds", "_perf_base", "_lock")

    def __init__(self, name: str, trace_id: Optional[str] = None):
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.name = name
        self.started_wall = wall_time()
        self._perf_base = perf_counter()
        self.spans: List[SpanRecord] = []
        self.dropped_spans = 0
        self.wall_seconds = 0.0
        self._lock = threading.Lock()

    # -- span recording ----------------------------------------------------
    def offset(self, perf_time: Optional[float] = None) -> float:
        """Seconds between the trace start and ``perf_time`` (default now)."""
        if perf_time is None:
            perf_time = perf_counter()
        return perf_time - self._perf_base

    def open_span(self, name: str, parent: int = -1,
                  start_perf: Optional[float] = None) -> int:
        """Start a span at ``start_perf`` (default now); returns its index
        (-1 when over the cap)."""
        with self._lock:
            if len(self.spans) >= TRACE_SPAN_CAP:
                self.dropped_spans += 1
                return -1
            self.spans.append(SpanRecord(name, parent, self.offset(start_perf)))
            return len(self.spans) - 1

    def close_span(self, index: int, end_perf: Optional[float] = None) -> None:
        """End span ``index`` at ``end_perf`` (default now)."""
        if index < 0:
            return
        self.spans[index].end = self.offset(end_perf)

    def add_span(self, name: str, start_perf: float, end_perf: float,
                 parent: int = -1) -> int:
        """Record an externally timed span (cross-thread attribution).

        ``start_perf`` / ``end_perf`` are absolute ``perf_counter`` reads
        from any thread; they are converted to trace-relative offsets.
        """
        with self._lock:
            if len(self.spans) >= TRACE_SPAN_CAP:
                self.dropped_spans += 1
                return -1
            self.spans.append(SpanRecord(name, parent,
                                         self.offset(start_perf),
                                         self.offset(end_perf)))
            return len(self.spans) - 1

    # -- reductions --------------------------------------------------------
    def finish(self) -> "TraceContext":
        """Stamp the total duration (idempotent enough for one caller)."""
        self.wall_seconds = self.offset()
        return self

    def coverage(self) -> float:
        """Fraction of the trace wall time covered by root-level spans.

        Overlapping intervals are merged first, so parallel attribution
        (e.g. a batcher span overlapping the caller's wait span) does not
        count twice.
        """
        total = self.wall_seconds if self.wall_seconds > 0 else self.offset()
        if total <= 0:
            return 0.0
        with self._lock:
            intervals = sorted(
                (span.start, span.end if span.end >= 0 else total)
                for span in self.spans if span.parent == -1)
        covered = 0.0
        cursor = 0.0
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return min(1.0, covered / total)

    def to_event(self) -> Dict[str, Any]:
        """The journal payload for one ``EVENT_TRACE`` record."""
        with self._lock:
            spans = [span.to_dict() for span in self.spans]
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "started_unix": self.started_wall,
            "wall_seconds": self.wall_seconds,
            "n_spans": len(spans),
            "dropped_spans": self.dropped_spans,
            "spans": spans,
        }


#: The active trace context (None = untraced work).
_ACTIVE: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_obs_trace_context", default=None)
#: Index of the innermost open span in the active context (-1 = root).
_PARENT: ContextVar[int] = ContextVar("repro_obs_trace_parent", default=-1)
#: The aggregate-span label stack (context-local, never shared by threads).
_PATH: ContextVar[Tuple[str, ...]] = ContextVar("repro_obs_span_path",
                                                default=())


def current_trace() -> Optional[TraceContext]:
    """The trace context work is currently attributed to, if any."""
    return _ACTIVE.get()


@dataclass(frozen=True)
class ContextSnapshot:
    """A captured ``(trace context, open-span)`` pair for thread handoff."""

    context: Optional[TraceContext] = None
    parent: int = -1

    def add_span(self, name: str, start_perf: float, end_perf: float) -> None:
        """Attribute an externally timed span to the captured trace."""
        if self.context is not None:
            self.context.add_span(name, start_perf, end_perf,
                                  parent=self.parent)


#: Shared snapshot for the common untraced case (no allocation per capture).
EMPTY_SNAPSHOT = ContextSnapshot()


def capture_context() -> ContextSnapshot:
    """Snapshot the active trace context for handoff to another thread."""
    context = _ACTIVE.get()
    if context is None:
        return EMPTY_SNAPSHOT
    return ContextSnapshot(context, _PARENT.get())


@contextmanager
def adopt_context(snapshot: Optional[ContextSnapshot]):
    """Run a block attributing its spans to a captured trace context.

    The worker-thread side of :func:`capture_context`: spans opened inside
    the block parent onto the span that was open at capture time.  A
    ``None`` / empty snapshot makes this a no-op.
    """
    if snapshot is None or snapshot.context is None:
        yield None
        return
    active_token = _ACTIVE.set(snapshot.context)
    parent_token = _PARENT.set(snapshot.parent)
    try:
        yield snapshot.context
    finally:
        _PARENT.reset(parent_token)
        _ACTIVE.reset(active_token)


class _TraceHandle:
    """Context manager installing one :class:`TraceContext`."""

    __slots__ = ("context", "_journal", "_active_token", "_parent_token")

    def __init__(self, context: TraceContext, journal: Optional[Any]):
        self.context = context
        self._journal = journal

    def __enter__(self) -> TraceContext:
        self._active_token = _ACTIVE.set(self.context)
        self._parent_token = _PARENT.set(-1)
        return self.context

    def __exit__(self, *exc) -> bool:
        _PARENT.reset(self._parent_token)
        _ACTIVE.reset(self._active_token)
        self.context.finish()
        if self._journal is not None:
            from repro.obs.journal import EVENT_TRACE

            self._journal.event(EVENT_TRACE, **self.context.to_event())
        return False


def start_trace(name: str, journal: Optional[Any] = None,
                trace_id: Optional[str] = None) -> _TraceHandle:
    """Open a request-scoped trace context for a ``with`` block.

    Every ``trace(...)`` span inside the block (and on threads that adopt
    the captured context) records into the trace.  When ``journal`` is
    given, the completed trace is appended as one ``EVENT_TRACE`` record
    on exit.
    """
    return _TraceHandle(TraceContext(name, trace_id=trace_id), journal)


@dataclass
class SpanStats:
    """Aggregate for one span path: entry count and total wall seconds."""

    count: int = 0
    total_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


class _Span:
    """The measured region :func:`trace` returns: one clock read on enter,
    one on exit, and that one interval goes to ``seconds``, the tracer's
    aggregate and the active trace context."""

    __slots__ = ("_tracer", "_label", "_start", "_path_token", "_span_index",
                 "_parent_token", "_context", "seconds")

    def __init__(self, tracer: Optional["Tracer"], label: str):
        self._tracer = tracer
        self._label = label
        self._start = 0.0
        self._path_token = None
        self._span_index = -1
        self._parent_token = None
        self._context: Optional[TraceContext] = None
        #: the measured duration; 0.0 until the block exits
        self.seconds = 0.0

    def __enter__(self) -> "_Span":
        if self._tracer is not None:
            self._path_token = _PATH.set(_PATH.get() + (self._label,))
        context = _ACTIVE.get()
        self._start = perf_counter()
        if context is not None:
            self._context = context
            self._span_index = context.open_span(self._label, _PARENT.get(),
                                                 self._start)
            self._parent_token = _PARENT.set(self._span_index)
        return self

    def __exit__(self, *exc) -> bool:
        end = perf_counter()
        self.seconds = end - self._start
        if self._context is not None:
            _PARENT.reset(self._parent_token)
            self._context.close_span(self._span_index, end)
        if self._path_token is not None:
            path = _PATH.get()
            _PATH.reset(self._path_token)
            self._tracer._record(path, self.seconds)
        return False


class Tracer:
    """Collects nested span timings, keyed by the full label path.

    The label stack is context-local (see module docstring); the aggregate
    is lock-protected, so concurrent threads may record simultaneously.
    """

    def __init__(self):
        self._aggregate: Dict[Tuple[str, ...], SpanStats] = {}
        self._lock = threading.Lock()

    def span(self, label: str) -> _Span:
        return _Span(self, label)

    def _record(self, path: Tuple[str, ...], elapsed: float) -> None:
        with self._lock:
            stats = self._aggregate.get(path)
            if stats is None:
                stats = SpanStats()
                self._aggregate[path] = stats
            stats.count += 1
            stats.total_seconds += elapsed

    @property
    def depth(self) -> int:
        """Current nesting depth in this context (0 outside any span)."""
        return len(_PATH.get())

    def paths(self) -> Dict[Tuple[str, ...], SpanStats]:
        """The raw aggregate, keyed by span-stack path."""
        with self._lock:
            return dict(self._aggregate)

    def stats(self, label: str) -> Optional[SpanStats]:
        """Combined stats for ``label`` regardless of where it nested."""
        return self.totals().get(label)

    def totals(self) -> Dict[str, SpanStats]:
        """Per-label totals/counts, summed across every parent path."""
        merged: Dict[str, SpanStats] = {}
        for path, stats in self.paths().items():
            label = path[-1]
            into = merged.setdefault(label, SpanStats())
            into.count += stats.count
            into.total_seconds += stats.total_seconds
        return merged

    def report(self, name_width: int = 40) -> str:
        """Indented tree of span paths with count/total/mean columns."""
        lines = [f"{'Span':{name_width}s}{'Count':>8s}"
                 f"{'Total s':>12s}{'Mean s':>12s}"]
        aggregate = self.paths()
        for path in sorted(aggregate):
            stats = aggregate[path]
            label = "  " * (len(path) - 1) + path[-1]
            lines.append(f"{label:{name_width}s}{stats.count:8d}"
                         f"{stats.total_seconds:12.4f}{stats.mean_seconds:12.4f}")
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._aggregate.clear()


_tracer: Optional[Tracer] = None


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _tracer


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` globally (``None`` disables); returns the previous."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def enable_tracing() -> Tracer:
    """Install and return a fresh global tracer."""
    tracer = Tracer()
    set_tracer(tracer)
    return tracer


def disable_tracing() -> None:
    """Turn tracing back into a no-op."""
    set_tracer(None)


def trace(label: str) -> _Span:
    """Measure a region: ``with trace("a/b") as span: ...``.

    The one timing primitive.  ``span.seconds`` holds the region's duration
    on exit; the same interval is recorded into the global tracer's
    aggregate and/or the active trace context when either is on.  Callers
    that keep the number pass it to their own sink, e.g.
    ``registry.histogram(name).observe(span.seconds)``.
    """
    return _Span(_tracer, label)
