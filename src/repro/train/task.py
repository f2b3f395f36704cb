"""The task protocol consumed by the shared training engine.

A :class:`TrainableTask` describes *what* to optimize — the module, the
training items, and the loss of one item — while :class:`repro.train.Trainer`
owns *how*: optimizer construction, seeded shuffling, gradient clipping,
stats, eval hooks, journaling and checkpointing.  Both
pre-training (MLM + MER) and every fine-tuning head implement this protocol,
so the paper's Adam-with-decay recipe lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from repro.nn import Module, Tensor


@dataclass
class StepOutput:
    """Result of one loss evaluation.

    ``loss=None`` means "record a zero-loss step without a parameter update"
    (pre-training batches can have no masked positions); a task that wants to
    skip an item entirely returns ``None`` from :meth:`TrainableTask.loss`
    instead.
    """

    loss: Optional[Tensor]
    extras: Dict[str, float] = field(default_factory=dict)


LossResult = Optional[Union[Tensor, StepOutput]]


class TrainableTask:
    """Base class / protocol for anything the engine can train.

    Subclasses must set :attr:`name` and :attr:`module` and implement
    :meth:`build_batches` and :meth:`loss`.  ``name`` uses ``/`` separators
    (e.g. ``"task/column_type"``); the engine derives tracing span names from
    it directly and metric names by replacing ``/`` with ``.``.
    """

    #: hierarchical task name, e.g. ``"pretrain"`` or ``"task/column_type"``.
    name: str = "task"
    #: the module whose parameters are optimized.
    module: Module

    def build_batches(self) -> Sequence[Any]:
        """The list of training items; one item is one optimization step.

        For table-grouped tasks an item is the whole per-table group (so each
        table is encoded once per step); for instance-level tasks it is a
        single instance.  Called once per :class:`~repro.train.Trainer`; the
        engine applies seeded subsampling and per-epoch shuffling on top.
        """
        raise NotImplementedError

    def loss(self, batch: Any, rng: np.random.Generator) -> LossResult:
        """Loss of one item (or, when ``spec.batch_size > 1``, a list of
        items).  Return ``None`` to skip the item without stepping."""
        raise NotImplementedError

    def item_size(self, item: Any) -> int:
        """Number of underlying training instances in ``item``; used by the
        engine's ``max_items`` subsampling budget."""
        return 1

    def bucket_key(self, item: Any) -> Any:
        """Padding-equivalence key for ``spec.shuffle="bucket"``.

        Items sharing a key may be batched together with no padding waste.
        The default (``None`` for every item) puts everything in one bucket,
        which degrades bucketed shuffling to a plain seeded reordering."""
        return None

    def shard_key(self, item: Any) -> int:
        """Locality key for ``spec.shuffle="shard"``.

        Items sharing a key live in the same on-disk payload shard; the
        engine visits shards in a seeded random order and batches within
        each, so streaming datasets touch one shard's pages at a time.  The
        default (``0`` for every item) degrades shard shuffling to bucketed
        shuffling over a single shard."""
        return 0

    def stream_fingerprint(self) -> Optional[str]:
        """Content id of the backing dataset for streaming tasks.

        Checkpoints persist it; resuming against a different corpus (whose
        record indices would silently mean different tables) fails fast.
        ``None`` means the task's items are self-contained (in-memory)."""
        return None

    def eval_metric(self) -> Optional[float]:
        """Periodic evaluation hook (higher is better); ``None`` disables it.

        The engine runs this under restored train/eval mode: whatever mode
        the module was in before the hook is reinstated afterwards.
        """
        return None

    def config_dict(self) -> Optional[Dict[str, Any]]:
        """Optional config payload recorded in the journal header."""
        return None
