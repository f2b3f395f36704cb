"""The serving facade: one object that answers any TUBE task.

A :class:`Predictor` owns a set of :class:`~repro.serve.adapters.TaskAdapter`
instances, installs one shared :class:`~repro.serve.cache.EncodeCache` on
every distinct underlying model (so repeated tables skip the Transformer
no matter which task asks), and instruments every call through
``repro.obs``:

- ``serve.requests.<task>`` counter — instances answered per task;
- ``serve.latency.<task>`` histogram — wall seconds per predict call,
  measured by a ``serve/latency/<task>`` span;
- ``serve.encode_cache.hit_rate`` gauge — rolling cache effectiveness
  (named fleet workers report ``serve.worker<i>.cache.hit_rate`` instead);
- optional :class:`repro.obs.RunJournal` events (``serve_request``).

Instrumentation reads only the monotonic clock; predictions are a pure
function of the instance and the fine-tuned weights, so results are
bit-identical with caching and metrics on or off.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs import RunJournal, get_registry, trace
from repro.serve.adapters import Prediction, TaskAdapter, adapters_by_task
from repro.serve.cache import ENCODE_CACHE_SIZE, EncodeCache


class Predictor:
    """Dispatch ``(task, instance)`` requests to the right adapter.

    ``cache=None`` (the default) builds a fresh shared
    :class:`EncodeCache`; pass an instance to share one across predictors
    or ``enable_cache=False`` to serve uncached (the bench baseline).
    """

    def __init__(self, adapters: Sequence[TaskAdapter],
                 cache: Optional[EncodeCache] = None,
                 cache_size: int = ENCODE_CACHE_SIZE,
                 enable_cache: bool = True,
                 journal: Optional[RunJournal] = None,
                 name: Optional[str] = None):
        self.adapters = adapters_by_task(adapters)
        self.cache = None
        if enable_cache:
            self.cache = cache if cache is not None else EncodeCache(cache_size)
        self.journal = journal
        # Fleet workers pass a name (e.g. "worker0") so each predictor's
        # cache gauge gets its own namespace; the anonymous single-predictor
        # deployment keeps the historical metric name.
        self.name = name
        self._cache_gauge = ("serve.encode_cache.hit_rate" if name is None
                             else f"serve.{name}.cache.hit_rate")
        for model in self._distinct_models():
            model.encode_cache = self.cache

    def _distinct_models(self) -> List[Any]:
        models: List[Any] = []
        for adapter in self.adapters.values():
            if not any(adapter.model is model for model in models):
                models.append(adapter.model)
        return models

    # -- introspection ----------------------------------------------------
    @property
    def tasks(self) -> List[str]:
        return sorted(self.adapters)

    def adapter_for(self, task: str) -> TaskAdapter:
        adapter = self.adapters.get(task)
        if adapter is None:
            raise KeyError(f"unknown task {task!r}; serving {self.tasks}")
        return adapter

    def cache_stats(self) -> Dict[str, float]:
        if self.cache is None:
            return {"enabled": 0.0}
        return {"enabled": 1.0, **self.cache.stats()}

    # -- prediction -------------------------------------------------------
    def predict_batch(self, task: str, instances: Sequence[Any]) -> List[Prediction]:
        adapter = self.adapter_for(task)
        registry = get_registry()
        with trace(f"serve/latency/{task}") as span:
            predictions = adapter.predict_batch(instances)
        registry.histogram(f"serve.latency.{task}").observe(span.seconds)
        registry.counter(f"serve.requests.{task}").inc(len(instances))
        if self.cache is not None:
            registry.gauge(self._cache_gauge).set(self.cache.hit_rate)
        if self.journal is not None:
            self.journal.event("serve_request", task=task,
                               instances=len(instances),
                               **{f"cache_{k}": v
                                  for k, v in self.cache_stats().items()})
        return predictions

    def predict(self, task: str, instance: Any) -> Prediction:
        return self.predict_batch(task, [instance])[0]

    # -- JSON plumbing (used by the HTTP layer) ---------------------------
    def predict_payloads(self, task: str,
                         payloads: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Decode JSON payloads, predict, re-encode JSON predictions."""
        adapter = self.adapter_for(task)
        instances = [adapter.decode_instance(payload) for payload in payloads]
        return [adapter.encode_prediction(prediction)
                for prediction in self.predict_batch(task, instances)]
