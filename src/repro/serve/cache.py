"""The shared transformer-output cache behind :class:`repro.serve.Predictor`.

Serving traffic is dominated by repeated tables: every task head funnels
through :meth:`repro.core.model.TURLModel.encode`, so memoizing its
``(token_hidden, entity_hidden)`` output lets a repeated table skip the
whole Transformer stack.  :class:`EncodeCache` mirrors the keying approach
of :func:`repro.core.visibility.cached_visibility` — content bytes of the
structure-defining arrays — but digests them (a batch is orders of
magnitude larger than a structure triple) and guards every lookup with a
lock so HTTP handler threads and serving lanes can share one
instance.

The model only ever consults the cache when it is in eval mode with
gradient recording off (see ``TURLModel.encode``): cached tensors carry no
autograd tape, so replaying them into a training step would silently
detach gradients.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.nn import Tensor

#: Default maximum number of distinct (batch, flags) entries kept.
ENCODE_CACHE_SIZE = 256


class EncodeCache:
    """A thread-safe LRU over ``TURLModel.encode`` outputs.

    Keys are content digests of every array in the encoder's input batch
    (tokens, entities, structure, visibility — sorted by field name so dict
    ordering is irrelevant) plus the ``use_visibility`` flag.  Values are
    the ``(token_hidden, entity_hidden)`` pair with read-only ``data``
    buffers, so one cached activation can be shared across requests without
    any copy.
    """

    def __init__(self, capacity: int = ENCODE_CACHE_SIZE):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[bytes, Tuple[Tensor, Tensor]]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    # -- keying -----------------------------------------------------------
    @staticmethod
    def key_for(batch: Dict[str, np.ndarray], use_visibility: bool) -> bytes:
        """Content digest of an encoder input batch.

        Hashes field names, dtypes, shapes and raw bytes, so two batches
        collide only when they are element-for-element identical requests.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(b"visibility:on" if use_visibility else b"visibility:off")
        for name in sorted(batch):
            value = np.ascontiguousarray(batch[name])
            digest.update(name.encode())
            digest.update(str(value.dtype).encode())
            digest.update(str(value.shape).encode())
            digest.update(value.tobytes())
        return digest.digest()

    # -- lookup -----------------------------------------------------------
    def get(self, key: bytes) -> Optional[Tuple[Tensor, Tensor]]:
        with self._lock:
            cached = self._entries.get(key)
            if cached is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return cached

    def put(self, key: bytes, value: Tuple[Tensor, Tensor]) -> None:
        for tensor in value:
            tensor.data.setflags(write=False)
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    # -- introspection ----------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Hit/miss counters, entry count, and the overall hit rate."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hit_rate": self._hits / total if total else 0.0,
            }

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    @staticmethod
    def aggregate(stats: Sequence[Dict[str, float]]) -> Dict[str, float]:
        """Roll per-cache :meth:`stats` dicts up into fleet totals.

        Counters (hits, misses, entries, capacity) sum; ``hit_rate`` is
        recomputed from the summed counters.  Averaging the per-worker
        rates would be wrong — a worker answering 10x the traffic must
        weigh 10x in the fleet rate — which is exactly the aggregation bug
        this helper exists to prevent.
        """
        totals = {"hits": 0.0, "misses": 0.0, "entries": 0.0, "capacity": 0.0}
        for entry in stats:
            for field in totals:
                totals[field] += entry.get(field, 0.0)
        total = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / total if total else 0.0
        return totals
