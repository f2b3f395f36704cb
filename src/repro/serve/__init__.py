"""Dependency-free model serving for the six TUBE tasks.

``repro.serve`` turns the per-task entry points (``predict`` / ``rank``)
into one uniform, instrumented surface:

- :mod:`repro.serve.adapters` — :class:`TaskAdapter` per task with
  ``predict_one`` / ``predict_batch`` and JSON codecs; adapter outputs are
  bit-identical to calling the wrapped head directly;
- :mod:`repro.serve.cache` — :class:`EncodeCache`, a thread-safe LRU over
  ``TURLModel.encode`` outputs keyed on batch content, so repeated tables
  skip the Transformer;
- :mod:`repro.serve.predictor` — the :class:`Predictor` facade: adapter
  dispatch, shared cache install, ``repro.obs`` metrics and journal;
- :mod:`repro.serve.batcher` — :class:`MicroBatcher`, the serving lane:
  a bounded queue drained by one thread that coalesces queued requests
  into per-task batches, with typed 429/503 backpressure, drain, and
  trace handoff;
- :mod:`repro.serve.ring` — :class:`HashRing`: consistent hashing with
  virtual nodes, routing table-content digests to lanes;
- :mod:`repro.serve.fleet` — :class:`PredictorFleet`, the one serving
  tier: N lanes over weight-sharing predictor clones with private encode
  caches behind content-keyed routing, and drain/reload for weight swaps
  (``workers=1`` is the single-predictor deployment);
- :mod:`repro.serve.http` — a stdlib ``http.server`` JSON endpoint
  (``POST /v1/<task>``, ``GET /healthz``, ``GET /metrics``) in front of a
  fleet, plus the in-process :class:`Client`;
- :mod:`repro.serve.bootstrap` — build all six heads + resources from
  pipeline artifacts (the ``repro.cli serve`` / smoke-test recipe).

Usage::

    from repro.serve import Client, PredictorFleet, build_serving_bundle

    bundle = build_serving_bundle(model, linearizer, kb, splits)
    with Client(PredictorFleet(bundle.predictor, workers=1)) as client:
        client.predict("column_type", payload)
        client.metrics()["encode_cache"]
"""

from repro.serve.adapters import (
    CellFillingAdapter,
    ColumnTypeAdapter,
    EntityLinkingAdapter,
    Prediction,
    RelationExtractionAdapter,
    RowPopulationAdapter,
    SchemaAugmentationAdapter,
    TaskAdapter,
    adapters_by_task,
)
from repro.serve.batcher import (
    DEFAULT_MAX_QUEUE,
    FleetError,
    FleetSaturated,
    FleetUnavailable,
    MicroBatcher,
)
from repro.serve.bootstrap import ServingBundle, build_serving_bundle
from repro.serve.cache import ENCODE_CACHE_SIZE, EncodeCache
from repro.serve.fleet import PredictorFleet, clone_predictor, pin_eval
from repro.serve.http import Client, PredictionServer
from repro.serve.predictor import Predictor
from repro.serve.ring import DEFAULT_REPLICAS, HashRing, route_key_for

__all__ = [
    "TaskAdapter",
    "Prediction",
    "EntityLinkingAdapter",
    "ColumnTypeAdapter",
    "RelationExtractionAdapter",
    "RowPopulationAdapter",
    "CellFillingAdapter",
    "SchemaAugmentationAdapter",
    "adapters_by_task",
    "EncodeCache",
    "ENCODE_CACHE_SIZE",
    "Predictor",
    "MicroBatcher",
    "PredictionServer",
    "Client",
    "ServingBundle",
    "build_serving_bundle",
    "HashRing",
    "route_key_for",
    "DEFAULT_REPLICAS",
    "PredictorFleet",
    "FleetError",
    "FleetSaturated",
    "FleetUnavailable",
    "DEFAULT_MAX_QUEUE",
    "clone_predictor",
    "pin_eval",
]
