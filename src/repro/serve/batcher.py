"""One serving lane: a bounded queue drained in task batches by one thread.

Concurrent callers (HTTP handler threads, test harnesses) enqueue single
instances; one daemon thread owns the lane's predictor and calls
``predictor.predict_batch`` per task group.  The single thread is the
serving layer's concurrency story: ``eval_mode`` / ``no_grad`` flip
process-global state, so every prediction of a lane runs on its thread —
callers only ever touch thread-safe
:class:`~concurrent.futures.Future` objects.

A lane flushes as soon as it is free: it takes the queued requests of the
oldest request's task, in arrival order, while they fit in
``max_batch_size`` instances (other tasks stay queued).  A request is
never split, so one larger than ``max_batch_size`` runs as a batch of its
own.  Under load, requests that arrive while a batch runs
coalesce into the next one; an idle lane answers a lone request at once.

The queue is bounded: a full lane raises :class:`FleetSaturated` (HTTP
429), a paused, draining or closed lane raises :class:`FleetUnavailable`
(HTTP 503).  A multi-instance request is admitted in one step under
:meth:`MicroBatcher.admit` — the bound is checked once, against the queue
as it stands, so a request is accepted whole or refused whole and is never
too large to fit.  Nothing the lane accepted is ever dropped —
:meth:`drain` and :meth:`close` wait for every accepted future to resolve.

Timing flows through :func:`repro.obs.clock.perf_counter`, the repo's one
clock gateway (lint rule CLK001).
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from contextlib import contextmanager
from itertools import groupby
from operator import itemgetter
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.obs import get_registry
from repro.obs.clock import perf_counter
from repro.obs.tracing import ContextSnapshot, capture_context

#: Default bound on each lane's queued instances before admissions 429.
DEFAULT_MAX_QUEUE = 64

#: One queued instance: task, instance, future, enqueue perf time, the
#: submitter's captured trace context (for cross-thread span attribution),
#: and the sequence number of the request it belongs to.
_Item = Tuple[str, Any, "Future", float, ContextSnapshot, int]


class FleetError(RuntimeError):
    """Base class for typed serving rejections; carries an HTTP status."""

    status = 500
    #: suffix of the ``serve.fleet.rejected.<reason>`` counter
    reason = "error"


class FleetSaturated(FleetError):
    """The lane's queue is full — back off and retry (429)."""

    status = 429
    reason = "saturated"


class FleetUnavailable(FleetError):
    """The lane is draining or stopped, not accepting work (503)."""

    status = 503
    reason = "unavailable"


class MicroBatcher:
    """Queue ``(task, instance)`` requests; flush them in task batches.

    Each :meth:`submit` captures the caller's trace context
    (:func:`repro.obs.capture_context`); the lane thread attributes a
    ``serve/queue`` span (time spent waiting for a batch) and a
    ``serve/predict`` span (the batch execution window) back to every
    originating request trace, so a request traced through the lane
    still yields a single connected trace.  Accepted instances count
    under ``serve.<name>.requests``.
    """

    def __init__(self, predictor, max_batch_size: int = 8,
                 max_queue: int = DEFAULT_MAX_QUEUE, name: str = "lane"):
        if max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.predictor = predictor
        self.max_batch_size = max_batch_size
        self.max_queue = max_queue
        self.name = name
        self._queue: Deque[_Item] = deque()
        # Reentrant, so a thread inside admit() can submit() under it.
        self._state = threading.Condition(threading.RLock())
        self._admitted = False
        self._requests = 0
        self._accepting = True
        self._closed = False
        self._inflight = 0
        self._served = 0
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"repro-serve-{name}")
        self._thread.start()

    # -- intake -----------------------------------------------------------
    def _check_intake(self) -> None:
        if self._closed or not self._accepting:
            raise FleetUnavailable(
                f"{self.name} is not accepting requests (draining or "
                "stopped)")
        if len(self._queue) >= self.max_queue:
            raise FleetSaturated(
                f"{self.name} queue is full "
                f"({self.max_queue} pending); retry later")

    @contextmanager
    def admit(self) -> Iterator["MicroBatcher"]:
        """Admit one request in a single step; :meth:`submit` its instances
        inside the block.

        Intake and the queue bound are checked once, on entry, and the
        lane's lock is held until exit: the request's instances queue
        contiguously and flush as one batch, and no other submitter or the
        lane thread interleaves.
        """
        with self._state:
            self._check_intake()
            self._requests += 1
            self._admitted = True
            try:
                yield self
            finally:
                self._admitted = False

    def submit(self, task: str, instance: Any) -> "Future":
        """Enqueue one instance; resolve its prediction via the future.

        Outside :meth:`admit`, the instance is admitted on its own."""
        future: Future = Future()
        snapshot = capture_context()
        with self._state:
            if not self._admitted:
                self._check_intake()
                self._requests += 1
            self._queue.append((task, instance, future, perf_counter(),
                                snapshot, self._requests))
            self._state.notify_all()
        get_registry().counter(f"serve.{self.name}.requests").inc()
        return future

    def predict(self, task: str, instance: Any):
        """Blocking convenience wrapper over :meth:`submit`."""
        return self.submit(task, instance).result()

    # -- lifecycle --------------------------------------------------------
    def pause(self) -> None:
        """Stop accepting new work; queued work still runs."""
        with self._state:
            self._accepting = False

    def resume(self) -> None:
        with self._state:
            if self._closed:
                raise FleetUnavailable(f"{self.name} is stopped")
            self._accepting = True

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Park intake and wait until every accepted request completed.

        Returns ``True`` once idle (``False`` on timeout).  No future is
        ever dropped: everything that :meth:`submit` accepted resolves.
        """
        with self._state:
            self._accepting = False
            return self._state.wait_for(
                lambda: not self._queue and self._inflight == 0,
                timeout=timeout)

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain, then stop the lane thread.  Idempotent."""
        self.drain(timeout=timeout)
        with self._state:
            self._closed = True
            self._state.notify_all()
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- introspection ----------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Queued plus in-flight instances."""
        with self._state:
            return len(self._queue) + self._inflight

    @property
    def served(self) -> int:
        """Instances answered so far (completed batches only)."""
        with self._state:
            return self._served

    def cache_stats(self) -> Dict[str, float]:
        return self.predictor.cache_stats()

    # -- the lane thread --------------------------------------------------
    def _take_batch(self) -> List[_Item]:
        """Pop the head task's queued requests, in arrival order, while
        they fit in ``max_batch_size`` instances (a lone request always
        fits).  Other tasks stay queued; requests are never split."""
        head_task = self._queue[0][0]
        batch: List[_Item] = []
        remaining: Deque[_Item] = deque()
        taking = True
        for _, run in groupby(self._queue, key=itemgetter(5)):
            request = list(run)  # admitted requests queue contiguously
            fits = not batch or (len(batch) + len(request)
                                 <= self.max_batch_size)
            if taking and request[0][0] == head_task and fits:
                batch.extend(request)
            else:
                # a head-task request that does not fit ends the batch,
                # so no later request of the task overtakes it
                taking = taking and request[0][0] != head_task
                remaining.extend(request)
        self._queue = remaining
        return batch

    def _run(self) -> None:
        while True:
            with self._state:
                self._state.wait_for(lambda: self._queue or self._closed)
                if not self._queue:
                    return  # closed and empty
                batch = self._take_batch()
                self._inflight += len(batch)
            try:
                self._flush(batch)
            finally:
                with self._state:
                    self._inflight -= len(batch)
                    self._served += len(batch)
                    self._state.notify_all()

    def _flush(self, batch: List[_Item]) -> None:
        registry = get_registry()
        registry.counter("serve.batches").inc()
        registry.histogram("serve.batch_size").observe(len(batch))
        flush_start = perf_counter()
        try:
            predictions = self.predictor.predict_batch(
                batch[0][0], [item[1] for item in batch])
        except Exception as error:  # propagate to every waiting caller
            self._attribute_spans(batch, flush_start)
            for item in batch:
                item[2].set_exception(error)
            return
        self._attribute_spans(batch, flush_start)
        for item, prediction in zip(batch, predictions):
            item[2].set_result(prediction)

    @staticmethod
    def _attribute_spans(batch: List[_Item], flush_start: float) -> None:
        """Record queue-wait and batch-execution spans into every item's
        originating trace context (no-ops for untraced submitters)."""
        flush_end = perf_counter()
        for _, _, _, enqueued, snapshot, _ in batch:
            snapshot.add_span("serve/queue", enqueued, flush_start)
            snapshot.add_span("serve/predict", flush_start, flush_end)
