"""In-memory spans recorded by timing wrappers around public functions.

The benchmark installs wrappers from its own files: a wrapper replaces an
attribute (a module-level function, or a method on a class) with a function
that records ``(name, start, end, parent, count)`` and calls the original.
Names imported by value (``from repro.core.batching import collate``) must
be patched in every module that looks them up, so :meth:`Tracer.patch`
takes the owner to patch, not the function's home module.

Spans live in per-thread lists, so a span's ``parent`` is an index into the
same thread's list.  A span's self time is its duration minus the time its
direct children cover; children of one span run on the same thread and so
never overlap.  A wrapper re-entered on a thread that already has a span of
the same name open records nothing, so recursion is not counted twice.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One recorded span: [name, start, end, parent index or -1, count].
Span = List[Any]


class Tracer:
    """Owns the wrappers it installs and the spans they record."""

    def __init__(self) -> None:
        self.active = True
        self._local = threading.local()
        self._threads: List[List[Span]] = []
        self._register = threading.Lock()
        self._patches: List[tuple] = []

    # -- recording --------------------------------------------------------
    def _state(self):
        state = self._local.__dict__
        if "spans" not in state:
            state["spans"] = []
            state["stack"] = []
            state["open"] = defaultdict(int)
            with self._register:
                self._threads.append(state["spans"])
        return state

    def wrap(self, function: Callable, name: str,
             count: Optional[Callable[..., int]] = None) -> Callable:
        """``function`` with every top-level call recorded as span ``name``.

        ``count(*args, **kwargs)`` gives the span's work count (e.g. batch
        size); it defaults to 1.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            state = tracer._state()
            if state["open"][name]:
                return function(*args, **kwargs)
            spans, stack = state["spans"], state["stack"]
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    count(*args, **kwargs) if count is not None else 1]
            stack.append(len(spans))
            spans.append(span)
            state["open"][name] += 1
            span[1] = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                state["open"][name] -= 1
                stack.pop()

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    def add(self, name: str, start: float, end: float, count: int = 1) -> None:
        """Record an interval that no single call covers (e.g. a request's
        time between handing work to another thread and getting it back)."""
        if self.active:
            self._state()["spans"].append([name, start, end, -1, count])

    # -- installing wrappers ----------------------------------------------
    def patch(self, owner: Any, attribute: str, name: str,
              count: Optional[Callable[..., int]] = None) -> None:
        """Replace ``owner.attribute`` by its traced wrapper."""
        self.substitute(owner, attribute,
                        lambda original: self.wrap(original, name, count))

    def substitute(self, owner: Any, attribute: str,
                   make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attribute`` by ``make(original)`` until
        :meth:`restore`."""
        if isinstance(owner, type) and attribute in owner.__dict__:
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reading ----------------------------------------------------------
    def threads(self) -> List[List[Span]]:
        """A copy of every thread's span list."""
        with self._register:
            return [[list(span) for span in spans] for spans in self._threads]


class Summary:
    """Per-name totals over a set of per-thread span lists."""

    def __init__(self, threads: List[List[Span]]):
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, int] = defaultdict(int)
        #: duration x count summed: the time each counted item spent inside
        #: the span (a batch of k items waits its whole duration k times).
        self.item_time: Dict[str, float] = defaultdict(float)
        for spans in threads:
            # A span still open when the copy was taken has end < start.
            closed = [span[2] >= span[1] for span in spans]
            child_time = [0.0] * len(spans)
            for span, done in zip(spans, closed):
                if done and span[3] >= 0:
                    child_time[span[3]] += span[2] - span[1]
            for index, (name, start, end, _, count) in enumerate(spans):
                if not closed[index]:
                    continue
                duration = end - start
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - child_time[index]
                self.count[name] += count
                self.item_time[name] += duration * count

    def total_ms(self, *names: str) -> float:
        return 1e3 * sum(self.total.get(name, 0.0) for name in names)

    def self_ms(self, *names: str) -> float:
        return 1e3 * sum(self.self_time.get(name, 0.0) for name in names)


def breakdown(summary: Summary, root: str,
              rows: Dict[str, Tuple[str, ...]]) -> Tuple[Dict[str, float],
                                                         float, float]:
    """Per-``root``-call rows that reconcile to ``root``'s wall time.

    ``rows`` maps a metric name to the span names whose self time it sums.
    Returns ``(rows_ms, unattributed_ms, wall_ms)``, each per call of
    ``root``: the unattributed row is ``root``'s own self time.  Raises if
    a recorded span belongs to no row, or if the rows do not add up.
    """
    known = {span for spans in rows.values() for span in spans}
    unknown = set(summary.calls) - known - {root}
    if unknown:
        raise ValueError(f"spans with no per-layer row: {sorted(unknown)}")
    n = summary.calls[root]
    rows_ms = {name: summary.self_ms(*spans) / n
               for name, spans in rows.items()}
    unattributed = summary.self_ms(root) / n
    wall = summary.total_ms(root) / n
    reconcile(rows_ms, unattributed, wall)
    return rows_ms, unattributed, wall


def reconcile(rows_ms: Dict[str, float], unattributed_ms: float,
              wall_ms: float, tolerance: float = 1e-6) -> None:
    """Raise unless the rows plus the unattributed row add up to wall time.

    ``unattributed_ms`` is measured independently (the self time of the
    enclosing span), so a row missing from ``rows_ms`` breaks the sum.
    """
    total = sum(rows_ms.values()) + unattributed_ms
    if abs(total - wall_ms) > tolerance * max(1.0, abs(wall_ms)):
        raise ValueError(
            f"per-layer rows sum to {total:.6f} ms but wall is "
            f"{wall_ms:.6f} ms: a row is missing or double counted")
