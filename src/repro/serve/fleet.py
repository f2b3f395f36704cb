"""Every server is a fleet: N coalescing lanes behind content routing.

One :class:`~repro.serve.predictor.Predictor` bounds serving throughput in
two ways: every request funnels through one queue, and one encode cache of
capacity ``C`` thrashes as soon as live traffic touches more than ``C``
distinct tables.  The fleet fixes both with N lanes that *partition the
table keyspace* instead of competing over it; ``workers=1`` is the
single-predictor deployment, with the same lane, backpressure and drain:

- each lane is a :class:`~repro.serve.batcher.MicroBatcher` over a private
  :class:`Predictor` clone — own :class:`~repro.serve.cache.EncodeCache`,
  shared read-only weights (see :func:`clone_predictor`; pair with
  ``load_checkpoint(..., mmap=True)`` for one on-disk weight copy across
  the whole fleet) — that coalesces queued requests per task;
- the :class:`PredictorFleet` dispatcher routes every request by the
  blake2b content digest of its table payload over a consistent-hash
  :class:`~repro.serve.ring.HashRing`, so repeats of a table always hit
  the lane whose cache already holds it, and the fleet's *aggregate*
  cache capacity is ``N x C`` (one lane skips the hashing);
- lane queues are bounded: a full queue raises :class:`FleetSaturated`
  (HTTP 429) instead of buffering unboundedly, and a draining/stopped
  fleet raises :class:`FleetUnavailable` (HTTP 503) — callers always get
  a typed answer, never a silent hang;
- :meth:`PredictorFleet.drain` parks intake, finishes every queued
  request (no lost futures), and makes weight swaps legal:
  :meth:`PredictorFleet.reload_state` rebinds the shared parameters in
  place, clears the now-stale encode caches, and :meth:`resume` reopens
  intake.

Metric names: lanes count accepted instances under
``serve.worker<i>.requests`` and their caches report
``serve.worker<i>.cache.*``; the fleet-wide rollup (counter-summed, *not*
rate-averaged — see :meth:`EncodeCache.aggregate`) keeps the historical
``serve.encode_cache.hit_rate`` gauge honest, and rejections count under
``serve.fleet.rejected.<class>``.
"""

from __future__ import annotations

import copy
import threading
from concurrent.futures import Future
from contextlib import ExitStack
from typing import Any, Dict, List, Optional, Sequence

from repro.obs import RunJournal, get_registry
from repro.serve.adapters import Prediction
from repro.serve.batcher import (
    DEFAULT_MAX_QUEUE,
    FleetError,
    FleetUnavailable,
    MicroBatcher,
)
from repro.serve.cache import EncodeCache
from repro.serve.predictor import Predictor
from repro.serve.ring import DEFAULT_REPLICAS, HashRing, route_key_for


def pin_eval(module: Any) -> None:
    """Permanently mark ``module`` (and children) as serving-only.

    Fleet workers run concurrently over shared submodules, and the heads'
    ``eval_mode`` guard restores ``training=True`` on exit *if the module
    was training* — a lost-update race when another worker is mid-predict.
    Pinning ``training=False`` everywhere makes every concurrent mode write
    idempotent (always ``False``), which is what makes shared-weight
    serving deterministic.  Only the trainer flips modules back.
    """
    for sub in module.modules():
        sub.training = False


def clone_predictor(template: Predictor, name: str,
                    cache_size: Optional[int] = None,
                    journal: Optional[RunJournal] = None) -> Predictor:
    """A worker-private :class:`Predictor` sharing ``template``'s weights.

    Each distinct model is shallow-copied (submodules and
    :class:`Parameter` objects shared — zero weight duplication) so the
    worker's ``encode_cache`` attribute doesn't fight the template's or the
    other workers'.  Adapters are shallow-cloned around the copied models;
    task resources (datasets, candidate generators) are shared read-only.
    Everything served is eval-pinned via :func:`pin_eval`, template
    included — a fleet's weights are serving-only until a drain + reload.
    """
    model_map: Dict[int, Any] = {}
    for model in template._distinct_models():
        clone = copy.copy(model)
        model_map[id(model)] = clone
    for adapter in template.adapters.values():
        pin_eval(adapter.head if hasattr(adapter.head, "modules")
                 else adapter.model)
    adapters = [adapter.clone_with_models(model_map)
                for adapter in template.adapters.values()]
    for adapter in adapters:
        pin_eval(adapter.head if hasattr(adapter.head, "modules")
                 else adapter.model)
    enable_cache = template.cache is not None
    if cache_size is None:
        cache_size = template.cache.capacity if enable_cache else 0
    return Predictor(adapters, cache_size=max(cache_size, 1),
                     enable_cache=enable_cache, journal=journal, name=name)




class PredictorFleet:
    """Route requests over N :class:`MicroBatcher` lanes by content key.

    Drop-in superset of the :class:`Predictor` serving surface
    (``predict`` / ``predict_batch`` / ``predict_payloads`` /
    ``cache_stats`` / ``tasks`` / ``adapter_for``), so the HTTP layer and
    the bench harness treat one lane and many uniformly.  Every request
    enters through :meth:`submit`, admitted whole or refused whole.
    ``journal`` defaults to the template's.
    """

    def __init__(self, template: Predictor, workers: int = 4,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 max_batch_size: int = 8,
                 cache_size: Optional[int] = None,
                 replicas: int = DEFAULT_REPLICAS,
                 journal: Optional[RunJournal] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.template = template
        self.journal = journal if journal is not None else template.journal
        self.max_queue = max_queue
        self.max_batch_size = max_batch_size
        self.cache_size = cache_size
        self._lock = threading.Lock()
        self._workers: Dict[str, MicroBatcher] = {}
        self.ring = HashRing(replicas=replicas)
        self._draining = False
        self._next_index = 0
        for _ in range(workers):
            self.add_worker()

    # -- membership ----------------------------------------------------
    @property
    def worker_names(self) -> List[str]:
        with self._lock:
            return list(self._workers)

    def add_worker(self) -> str:
        """Clone a new lane onto the ring; moves ~1/N of the keyspace."""
        with self._lock:
            name = f"worker{self._next_index}"
            self._next_index += 1
            predictor = clone_predictor(self.template, name=name,
                                        cache_size=self.cache_size,
                                        journal=self.journal)
            worker = MicroBatcher(predictor,
                                  max_batch_size=self.max_batch_size,
                                  max_queue=self.max_queue, name=name)
            if self._draining:
                worker.pause()
            self._workers[name] = worker
            self.ring.add_worker(name)
            get_registry().gauge("serve.fleet.workers").set(len(self._workers))
        if self.journal is not None:
            self.journal.event("fleet_worker_added", worker=name,
                               workers=len(self._workers))
        return name

    def remove_worker(self, name: str) -> None:
        """Drain one lane off the ring; its keys fall to ring successors."""
        with self._lock:
            worker = self._workers.pop(name, None)
            if worker is None:
                raise KeyError(f"no such worker {name!r}")
            self.ring.remove_worker(name)
            get_registry().gauge("serve.fleet.workers").set(len(self._workers))
        worker.close()
        if self.journal is not None:
            self.journal.event("fleet_worker_removed", worker=name,
                               workers=len(self._workers))

    # -- Predictor-compatible introspection ----------------------------
    @property
    def tasks(self) -> List[str]:
        return self.template.tasks

    def adapter_for(self, task: str):
        return self.template.adapter_for(task)

    def cache_stats(self) -> Dict[str, Any]:
        """Per-worker cache stats plus the counter-summed fleet rollup.

        Also refreshes the gauges: ``serve.worker<i>.cache.hit_rate`` per
        lane and the fleet-wide ``serve.encode_cache.hit_rate`` (summed
        hits over summed lookups — a traffic-weighted rate, not an average
        of per-worker rates).
        """
        registry = get_registry()
        with self._lock:
            workers = dict(self._workers)
        per_worker: Dict[str, Dict[str, float]] = {}
        for name, worker in workers.items():
            stats = worker.cache_stats()
            per_worker[name] = stats
            if stats.get("enabled"):
                registry.gauge(f"serve.{name}.cache.hit_rate").set(
                    stats.get("hit_rate", 0.0))
        enabled = [s for s in per_worker.values() if s.get("enabled")]
        rollup = EncodeCache.aggregate(enabled)
        rollup["enabled"] = 1.0 if enabled else 0.0
        rollup["workers"] = float(len(per_worker))
        if enabled:
            registry.gauge("serve.encode_cache.hit_rate").set(
                rollup["hit_rate"])
        return {**rollup, "per_worker": per_worker}

    # -- routing -------------------------------------------------------
    def _lane_for(self, task: str, instance: Any,
                  payload: Optional[Dict[str, Any]]) -> MicroBatcher:
        with self._lock:
            if len(self._workers) == 1:
                return next(iter(self._workers.values()))
        if payload is None:
            payload = self.template.adapter_for(task).encode_instance(instance)
        name = self.ring.route(route_key_for(payload, task=task))
        with self._lock:
            worker = self._workers.get(name)
        if worker is None:
            raise FleetUnavailable(f"worker {name!r} left the fleet")
        return worker

    def route(self, task: str, payload: Dict[str, Any]) -> str:
        """Name of the lane owning this payload's content key."""
        return self._lane_for(task, None, payload).name

    def submit(self, task: str, instances: Sequence[Any],
               payloads: Optional[Sequence[Dict[str, Any]]] = None
               ) -> List["Future"]:
        """Enqueue one request's decoded instances; one future each.

        The request is admitted in one step on every lane it touches
        (:meth:`MicroBatcher.admit`, lanes taken in name order), so it is
        accepted whole or refused whole, and each lane's share queues
        contiguously.  ``payloads`` are the instances' JSON forms, the
        source of the routing keys; when omitted they are encoded from the
        instances, and only when there is more than one lane to choose
        from.  Typed rejections count under
        ``serve.fleet.rejected.<saturated|unavailable>``.
        """
        if payloads is None:
            payloads = [None] * len(instances)
        try:
            lanes = [self._lane_for(task, instance, payload)
                     for instance, payload in zip(instances, payloads)]
            with ExitStack() as admitted:
                for lane in sorted(set(lanes), key=lambda lane: lane.name):
                    admitted.enter_context(lane.admit())
                return [lane.submit(task, instance)
                        for lane, instance in zip(lanes, instances)]
        except FleetError as error:
            get_registry().counter(
                f"serve.fleet.rejected.{error.reason}").inc()
            raise

    # -- prediction ----------------------------------------------------
    def predict_payloads(self, task: str,
                         payloads: Sequence[Dict[str, Any]]
                         ) -> List[Dict[str, Any]]:
        """JSON payloads in, JSON predictions out — content-routed.

        Payloads decode on the calling thread, then the request goes
        through :meth:`submit`, so lanes only ever run the model.
        """
        adapter = self.template.adapter_for(task)
        if self._draining:  # the typed 503 wins over decoding errors
            raise FleetUnavailable("the fleet is draining or stopped")
        instances = [adapter.decode_instance(payload) for payload in payloads]
        return [adapter.encode_prediction(future.result())
                for future in self.submit(task, instances, payloads)]

    def predict_batch(self, task: str,
                      instances: Sequence[Any]) -> List[Prediction]:
        """Instance-level twin of :meth:`Predictor.predict_batch`."""
        self.template.adapter_for(task)  # unknown task -> KeyError up front
        return [future.result() for future in self.submit(task, instances)]

    def predict(self, task: str, instance: Any) -> Prediction:
        return self.predict_batch(task, [instance])[0]

    # -- drain / reload ------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Park intake fleet-wide and wait for every lane to go idle."""
        with self._lock:
            self._draining = True
            workers = list(self._workers.values())
        for worker in workers:
            worker.pause()
        idle = all(worker.drain(timeout=timeout) for worker in workers)
        if self.journal is not None:
            self.journal.event("fleet_drained", idle=idle,
                               workers=len(workers))
        return idle

    def resume(self) -> None:
        """Reopen intake after a drain (and any reload)."""
        with self._lock:
            self._draining = False
            workers = list(self._workers.values())
        for worker in workers:
            worker.resume()
        if self.journal is not None:
            self.journal.event("fleet_resumed", workers=len(workers))

    def reload_state(self, state: Dict[str, Any], copy: bool = True) -> None:
        """Swap weights under drain; requires :meth:`drain` first.

        The workers' models share the template's :class:`Parameter`
        objects, so loading into the template retargets every lane at
        once.  Each worker's encode cache (and the template's) is cleared
        — cached activations are functions of the old weights.
        ``copy=False`` binds memory-mapped arrays zero-copy (pair with
        :func:`repro.nn.serialization.load_state` ``mmap=True``).
        """
        with self._lock:
            if not self._draining:
                raise FleetUnavailable(
                    "reload requires a drained fleet: call drain() first, "
                    "resume() after")
            workers = list(self._workers.values())
        for worker in workers:
            if not worker.drain(timeout=0):
                raise FleetUnavailable(
                    f"{worker.name} still has in-flight work; finish "
                    "drain() before reloading")
        for model in self.template._distinct_models():
            model.load_state_dict(state, copy=copy)
            pin_eval(model)
        for worker in workers:
            if worker.predictor.cache is not None:
                worker.predictor.cache.clear()
        if self.template.cache is not None:
            self.template.cache.clear()
        if self.journal is not None:
            self.journal.event("fleet_reloaded", parameters=len(state),
                               zero_copy=not copy)

    def reload_checkpoint_weights(self, path: str, mmap: bool = True) -> None:
        """Drain-time weight swap straight from a ``model.npz`` archive."""
        from repro.nn.serialization import load_state

        state = load_state(path, mmap=mmap)
        self.reload_state(state, copy=not mmap)

    # -- shutdown ------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> None:
        """Drain and stop every lane."""
        with self._lock:
            self._draining = True
            workers = list(self._workers.values())
        for worker in workers:
            worker.pause()
        for worker in workers:
            worker.close(timeout=timeout)

    def __enter__(self) -> "PredictorFleet":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
