"""The shared training engine (paper Section 4.4 / Section 6 "details").

One :class:`Trainer` drives both pre-training and every fine-tuning head:
Adam with an optional linearly decaying learning rate and global-norm
gradient clipping, seeded epoch shuffling, per-step / per-epoch statistics,
periodic evaluation hooks with train/eval-mode restoration, JSONL
journaling, and checkpoint save / resume.  Tasks plug in through the
:class:`~repro.train.task.TrainableTask` protocol.

Subsampling semantics
---------------------

``TrainSpec.max_items`` caps the number of *training instances* seen per
epoch.  Selection is **item-aware**: whole items (per-table groups for
grouped tasks) are drawn in a seeded random order until the instance budget
— the sum of :meth:`TrainableTask.item_size` — is reached, then kept in
their original relative order.  Whole tables are therefore kept or dropped
together, so the same seed yields the same table coverage in every task,
and the draw comes from its own ``default_rng(seed)`` stream, independent of
training progress (which is what makes checkpoint resume exact).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.nn import (
    Adam,
    ConstantSchedule,
    LinearDecaySchedule,
    assert_finite_module,
    clip_grad_norm,
    eval_mode,
    sanitize_ops,
)
from repro.nn.tensor import Parameter
from repro.obs import (
    RunJournal,
    adopt_context,
    capture_context,
    get_registry,
    trace,
)
from repro.train.task import StepOutput, TrainableTask

SCHEDULES = ("constant", "linear")
SHUFFLE_MODES = ("flat", "bucket", "shard")
#: ``schedule="linear"`` decays the learning rate to this fraction of its
#: initial value over the run.
FINAL_LR_FRACTION = 0.1
#: Fields that checkpoints written by older versions may still carry; every
#: caller left them at no warmup, decay to :data:`FINAL_LR_FRACTION` and no
#: early stopping, which is what the engine now always does.
RETIRED_SPEC_FIELDS = ("warmup_steps", "final_lr_fraction",
                       "early_stop_patience", "early_stop_min_delta")


@dataclass
class TrainSpec:
    """Everything the engine needs to know about *how* to train.

    ``schedule="linear"`` reproduces the paper's linearly decreasing learning
    rate (down to :data:`FINAL_LR_FRACTION` of it); ``gradient_clip=None``
    disables clipping (the gradient norm is then only computed when a
    journal asks for it).
    """

    epochs: int = 1
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    schedule: str = "constant"
    gradient_clip: Optional[float] = None
    batch_size: int = 1
    #: epoch order: ``"flat"`` reproduces the historical order bit-for-bit
    #: (one permutation, sequential chunks); ``"bucket"`` groups items by
    #: :meth:`TrainableTask.bucket_key` so multi-instance batches collate
    #: with minimal padding (seeded-equivalent coverage, different order);
    #: ``"shard"`` additionally keeps consecutive batches inside one payload
    #: shard (:meth:`TrainableTask.shard_key`) so streaming datasets read
    #: with page locality.
    shuffle: str = "flat"
    seed: int = 0
    max_items: Optional[int] = None
    eval_every: Optional[int] = None
    eval_at_end: bool = False
    #: run every optimization step under the autograd sanitizer
    #: (:func:`repro.nn.sanitize_ops`).  Observation-only: seeded results are
    #: bit-identical with this on or off.
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}; "
                             f"expected one of {SCHEDULES}")
        if self.shuffle not in SHUFFLE_MODES:
            raise ValueError(f"unknown shuffle mode {self.shuffle!r}; "
                             f"expected one of {SHUFFLE_MODES}")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainSpec":
        return cls(**{key: value for key, value in payload.items()
                      if key not in RETIRED_SPEC_FIELDS})


@dataclass
class TrainStats:
    """Per-step and per-epoch history of one :meth:`Trainer.fit` run."""

    losses: List[float] = field(default_factory=list)
    epoch_losses: List[float] = field(default_factory=list)
    lrs: List[float] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)
    extras: Dict[str, List[float]] = field(default_factory=dict)
    eval_steps: List[int] = field(default_factory=list)
    eval_values: List[float] = field(default_factory=list)
    steps: int = 0
    wall_seconds: float = 0.0

    @property
    def throughput(self) -> float:
        """Optimization steps per wall-clock second."""
        return self.steps / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def final_eval(self) -> Optional[float]:
        return self.eval_values[-1] if self.eval_values else None


def build_optimizer(parameters: Sequence[Parameter], spec: TrainSpec,
                    total_steps: int) -> Adam:
    """The engine-owned optimizer recipe: Adam + the spec's LR schedule."""
    if spec.schedule == "linear":
        schedule = LinearDecaySchedule(spec.learning_rate,
                                       total_steps=max(1, total_steps),
                                       final_fraction=FINAL_LR_FRACTION)
    else:
        schedule = ConstantSchedule(spec.learning_rate)
    return Adam(parameters, learning_rate=spec.learning_rate,
                weight_decay=spec.weight_decay, schedule=schedule)


def subsample_items(items: Sequence[Any], max_count: Optional[int], seed: int,
                    size_of: Optional[Callable[[Any], int]] = None) -> List[Any]:
    """Seeded, item-aware subsampling (see module docstring).

    Whole items are drawn in ``default_rng(seed)`` order until the cumulative
    ``size_of`` budget (default: one per item) reaches ``max_count``;
    survivors keep their original relative order.  At least one item is
    always kept.
    """
    if size_of is None:
        size_of = lambda item: 1
    items = list(items)
    if max_count is None or sum(size_of(item) for item in items) <= max_count:
        return items
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(items))
    chosen: List[int] = []
    budget = 0
    for index in order:
        chosen.append(int(index))
        budget += size_of(items[int(index)])
        if budget >= max_count:
            break
    return [items[i] for i in sorted(chosen)]


def _grad_norm(parameters: Sequence[Parameter]) -> float:
    present = [p for p in parameters if p.grad is not None]
    return float(np.sqrt(sum(float((p.grad**2).sum()) for p in present)))


class Trainer:
    """Runs a :class:`TrainableTask` under a :class:`TrainSpec`.

    ``rng`` / ``optimizer`` may be injected by callers that keep them across
    runs (:class:`repro.core.pretrain.Pretrainer` carries both from one
    ``train``/``step`` call to the next); by default the engine owns both.
    """

    def __init__(self, task: TrainableTask, spec: TrainSpec,
                 journal: Optional[RunJournal] = None,
                 rng: Optional[np.random.Generator] = None,
                 optimizer: Optional[Adam] = None):
        self.task = task
        self.spec = spec
        self.journal = journal
        self.rng = rng if rng is not None else np.random.default_rng(spec.seed)
        self._optimizer = optimizer
        self.epochs_completed = 0
        self.step_index = 0
        #: chunks of the current epoch already consumed — with
        #: :attr:`_epoch_start_rng_state` this is the checkpointed stream
        #: position that makes mid-epoch resume exact.
        self.chunks_consumed = 0
        self._epoch_start_rng_state: Optional[dict] = None
        self._epoch_losses: List[float] = []
        self._pending_chunks: Optional[List[Any]] = None
        self._items: Optional[List[Any]] = None
        self._metric_prefix = task.name.replace("/", ".")
        self._fit_context = None

    # -- setup -------------------------------------------------------------
    @property
    def items(self) -> List[Any]:
        if self._items is None:
            self._items = subsample_items(self.task.build_batches(),
                                          self.spec.max_items, self.spec.seed,
                                          self.task.item_size)
        return self._items

    @property
    def steps_per_epoch(self) -> int:
        return max(1, int(np.ceil(len(self.items) / self.spec.batch_size)))

    @property
    def optimizer(self) -> Adam:
        """The injected optimizer, or one built on first use for
        ``steps_per_epoch * spec.epochs`` steps over the task module."""
        if self._optimizer is None:
            self._optimizer = build_optimizer(
                self.task.module.parameters(), self.spec,
                self.steps_per_epoch * self.spec.epochs)
        return self._optimizer

    def _write_header(self) -> None:
        if self.journal is None:
            return
        n_instances = sum(self.task.item_size(item) for item in self.items)
        self.journal.header(config=self.task.config_dict(),
                            seed=self.spec.seed, task=self.task.name,
                            n_instances=n_instances,
                            n_epochs=self.spec.epochs,
                            spec=self.spec.to_dict())

    # -- one optimization step ---------------------------------------------
    def run_step(self, batch: Any) -> Optional[Dict[str, float]]:
        """Loss, backward, clip, optimizer update for one item/batch.

        Returns ``None`` when the task skipped the item, otherwise a result
        dictionary with the loss, any task extras, per-phase timings, the
        pre-clip gradient norm, the applied learning rate and the step's
        wall ``seconds``.
        """
        with trace(f"{self.task.name}/step") as step:
            if self.spec.sanitize:
                with sanitize_ops():
                    result = self._run_step_inner(batch)
                if result is not None and result.get("updated"):
                    assert_finite_module(self.task.module,
                                         context="after optimizer step")
            else:
                result = self._run_step_inner(batch)
        if result is not None:
            result["seconds"] = step.seconds
        return result

    def _run_step_inner(self, batch: Any) -> Optional[Dict[str, float]]:
        spec, task = self.spec, self.task
        with trace(f"{task.name}/step/forward") as forward:
            output = task.loss(batch, self.rng)
        if output is None:
            return None
        if not isinstance(output, StepOutput):
            output = StepOutput(loss=output)
        if output.loss is None:
            return {"loss": 0.0, **output.extras,
                    "forward_seconds": forward.seconds,
                    "backward_seconds": 0.0, "optimizer_seconds": 0.0,
                    "grad_norm": 0.0, "lr": 0.0, "updated": 0.0}

        optimizer = self.optimizer
        task.module.zero_grad()
        with trace(f"{task.name}/step/backward") as backward:
            output.loss.backward()
            if spec.gradient_clip is not None:
                grad_norm = clip_grad_norm(optimizer.parameters,
                                           spec.gradient_clip)
            elif self.journal is not None:
                grad_norm = _grad_norm(optimizer.parameters)
            else:
                grad_norm = 0.0
        lr = optimizer.schedule(optimizer.step_count)
        with trace(f"{task.name}/step/optimizer") as update:
            optimizer.step()
        loss_value = output.loss.item()

        registry = get_registry()
        prefix = self._metric_prefix
        registry.counter(f"{prefix}.steps").inc()
        registry.histogram(f"{prefix}.loss").observe(loss_value)
        registry.histogram(f"{prefix}.grad_norm").observe(grad_norm)
        registry.histogram(f"{prefix}.forward").observe(forward.seconds)
        registry.histogram(f"{prefix}.backward").observe(backward.seconds)
        registry.histogram(f"{prefix}.optimizer").observe(update.seconds)
        return {"loss": loss_value, **output.extras,
                "forward_seconds": forward.seconds,
                "backward_seconds": backward.seconds,
                "optimizer_seconds": update.seconds,
                "grad_norm": grad_norm, "lr": lr, "updated": 1.0}

    # -- the loop -----------------------------------------------------------
    def fit(self, epochs: Optional[int] = None,
            max_steps: Optional[int] = None) -> TrainStats:
        """Train until ``spec.epochs`` total epochs are completed.

        ``epochs`` caps how many *additional* epochs this call runs (used by
        checkpoint/resume tests and incremental training); by default the
        remaining ``spec.epochs - epochs_completed`` run.  ``max_steps`` caps
        this call's optimization steps and may pause mid-epoch — the stream
        position (epoch-start RNG state + chunks consumed) is part of
        :meth:`save`, so a later :meth:`fit` (possibly after a restore)
        continues the interrupted epoch bit-identically.  Returns the stats
        of this call only.
        """
        stats = TrainStats()
        items = self.items
        self._write_header()
        target = self.spec.epochs
        if epochs is not None:
            target = min(target, self.epochs_completed + epochs)
        module = self.task.module
        module.train()
        spec = self.spec
        # Capture the originating trace context (e.g. a serve request that
        # triggered this run) so eval hooks attribute to it even if a task's
        # eval_metric hops threads.
        self._fit_context = capture_context()
        paused = False
        with trace(f"{self.task.name}/train") as train:
            while self.epochs_completed < target:
                chunks = self._ensure_epoch_chunks(items)
                while self.chunks_consumed < len(chunks):
                    indices = chunks[self.chunks_consumed]
                    chunk = [items[int(i)] for i in indices]
                    batch = chunk[0] if spec.batch_size == 1 else chunk
                    result = self.run_step(batch)
                    self.chunks_consumed += 1
                    if result is None:
                        continue
                    self.step_index += 1
                    stats.steps += 1
                    stats.losses.append(result["loss"])
                    stats.lrs.append(result["lr"])
                    stats.grad_norms.append(result["grad_norm"])
                    for key, value in result.items():
                        if key in ("loss", "lr", "grad_norm", "updated") or \
                                key.endswith("seconds"):
                            continue
                        stats.extras.setdefault(key, []).append(value)
                    if result["updated"]:
                        self._epoch_losses.append(result["loss"])
                    self._journal_step(result)
                    if (spec.eval_every
                            and self.step_index % spec.eval_every == 0):
                        self._run_eval(stats)
                    if max_steps is not None and stats.steps >= max_steps:
                        paused = True
                        break
                if self.chunks_consumed >= len(chunks):
                    epoch_loss = (float(np.mean(self._epoch_losses))
                                  if self._epoch_losses else 0.0)
                    stats.epoch_losses.append(epoch_loss)
                    get_registry().histogram(
                        f"{self._metric_prefix}.epoch_loss").observe(epoch_loss)
                    self.epochs_completed += 1
                    self._pending_chunks = None
                    self._epoch_start_rng_state = None
                    self.chunks_consumed = 0
                    self._epoch_losses = []
                if paused:
                    break
        stats.wall_seconds = train.seconds
        if (spec.eval_at_end and not paused
                and self.epochs_completed >= spec.epochs):
            stats.wall_seconds += self._run_eval(stats)
        get_registry().gauge(
            f"{self._metric_prefix}.throughput").set(stats.throughput)
        return stats

    def _ensure_epoch_chunks(self, items: List[Any]) -> List[Any]:
        """The current epoch's chunk plan, deriving or re-deriving it.

        A fresh epoch snapshots the RNG state *before* drawing the plan; a
        mid-epoch resume (``chunks_consumed > 0`` with no plan in memory)
        replays the draw from that snapshot and then reinstates the restored
        mid-epoch RNG state, so the remaining chunks — and every later
        masking draw — match an uninterrupted run bit-for-bit.
        """
        if self._pending_chunks is not None:
            return self._pending_chunks
        if self._epoch_start_rng_state is not None and self.chunks_consumed:
            current = self.rng.bit_generator.state
            self.rng.bit_generator.state = self._epoch_start_rng_state
            self._pending_chunks = self._epoch_chunks(items)
            self.rng.bit_generator.state = current
        else:
            self._epoch_start_rng_state = self.rng.bit_generator.state
            self._pending_chunks = self._epoch_chunks(items)
        return self._pending_chunks

    def _epoch_chunks(self, items: List[Any]) -> List[Any]:
        """One epoch's batches as lists of item indices.

        ``shuffle="flat"`` consumes exactly one ``rng.permutation`` and
        chunks it sequentially — byte-for-byte the pre-bucketing behaviour.
        ``shuffle="bucket"`` additionally groups the permuted order by
        :meth:`TrainableTask.bucket_key` and shuffles the chunk order, so
        every item still occurs exactly once per epoch but like-shaped items
        share a batch (minimal collate padding).  ``shuffle="shard"`` visits
        :meth:`TrainableTask.shard_key` groups in a seeded random order and
        buckets within each, so streaming datasets read shard-locally.
        """
        spec = self.spec
        if spec.shuffle == "shard":
            from repro.core.batching import shard_bucketed_chunk_indices

            shard_ids = [self.task.shard_key(item) for item in items]
            keys = [self.task.bucket_key(item) for item in items]
            return shard_bucketed_chunk_indices(shard_ids, keys,
                                                spec.batch_size, self.rng)
        order = self.rng.permutation(len(items))
        if spec.shuffle == "bucket":
            from repro.core.batching import bucketed_chunk_indices

            keys = [self.task.bucket_key(item) for item in items]
            return bucketed_chunk_indices(keys, spec.batch_size, order,
                                          self.rng)
        return [order[start:start + spec.batch_size]
                for start in range(0, len(items), spec.batch_size)]

    def _journal_step(self, result: Dict[str, float]) -> None:
        if self.journal is None:
            return
        fields = {key: value for key, value in result.items()
                  if key != "updated"}
        seconds = fields["seconds"]
        if "tokens" in fields:
            fields["tokens_per_second"] = (fields["tokens"] / seconds
                                           if seconds > 0 else 0.0)
        self.journal.step(self.step_index, **fields)

    def _run_eval(self, stats: TrainStats) -> float:
        """One mode-restoring evaluation probe, attributed to the trace
        context that was active when :meth:`fit` started; returns its
        wall seconds."""
        with adopt_context(self._fit_context):
            with trace(f"{self.task.name}/eval") as probe:
                with eval_mode(self.task.module):
                    value = self.task.eval_metric()
        if value is not None:
            stats.eval_steps.append(self.step_index)
            stats.eval_values.append(value)
            if self.journal is not None:
                self.journal.probe(self.step_index, value,
                                   seconds=probe.seconds)
        return probe.seconds

    # -- checkpointing -------------------------------------------------------
    def save(self, directory: str) -> None:
        """Persist module weights, optimizer moments, RNG state and progress."""
        from repro.train.checkpoint import save_training_state

        save_training_state(directory, self)

    @classmethod
    def restore(cls, directory: str, task: TrainableTask,
                spec: Optional[TrainSpec] = None,
                journal: Optional[RunJournal] = None) -> "Trainer":
        """Inverse of :meth:`save`; ``task`` must be rebuilt identically
        (same constructors and seeds) by the caller."""
        from repro.train.checkpoint import load_training_state

        return load_training_state(directory, task, spec=spec, journal=journal)
