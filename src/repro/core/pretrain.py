"""Pre-training (paper Section 4.4) as a task on the shared engine.

The joint loss is MLM + MER cross-entropy (Eqn. 7), optimized with Adam
under a linearly decaying learning rate.  The loop itself lives in
:mod:`repro.train`: :class:`Pretrainer` is a
:class:`~repro.train.TrainableTask` and drives the same
:class:`~repro.train.Trainer` as every fine-tuning head, which is where
optimizer construction, shuffling, clipping, stats, journaling and
checkpointing live.  Auxiliary objectives (e.g.
:class:`repro.ext.kb_injection.KBInjectionPretrainer`) are extra loss terms
on :meth:`Pretrainer.compute_loss`, not a second loop.
:func:`evaluate_object_prediction` implements the ablation probe of Section
6.8: mask an object entity cell (both entity embedding and mention), recover
it from a candidate set, and report top-1 accuracy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import TURLConfig
from repro.core.batching import bucket_key, collate
from repro.core.candidates import CandidateBuilder
from repro.core.linearize import ETYPE_OBJECT, TableInstance
from repro.core.masking import IGNORE, MaskingPolicy
from repro.core.model import TURLModel
from repro.core.stream import TableInstanceStream
from repro.nn import Tensor, eval_mode, masked_cross_entropy, no_grad
from repro.nn.serialization import load_state, save_state_dict
from repro.obs import RunJournal, trace
from repro.text.tokenizer import WordPieceTokenizer
from repro.text.vocab import MASK_ID, SPECIAL_TOKENS, Vocabulary
from repro.train import StepOutput, TrainableTask, Trainer, TrainSpec

_FIRST_REAL_ID = len(SPECIAL_TOKENS)


@dataclass
class PretrainStats:
    """Training history: per-step losses, probe accuracies and throughput."""

    losses: List[float] = field(default_factory=list)
    mlm_losses: List[float] = field(default_factory=list)
    mer_losses: List[float] = field(default_factory=list)
    eval_steps: List[int] = field(default_factory=list)
    eval_accuracies: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    steps: int = 0

    @property
    def final_accuracy(self) -> Optional[float]:
        return self.eval_accuracies[-1] if self.eval_accuracies else None

    @property
    def throughput(self) -> float:
        """Optimization steps per wall-clock second."""
        return self.steps / self.wall_seconds if self.wall_seconds > 0 else 0.0


class Pretrainer(TrainableTask):
    """MLM + MER pre-training over linearized tables, on the shared engine.

    ``instances`` is an eager ``Sequence[TableInstance]`` or a
    :class:`~repro.core.stream.TableInstanceStream`; for a stream the
    engine's items are record positions that :meth:`loss` decodes and
    linearizes at step time, so an epoch never materializes the corpus, and
    ``shuffle="shard"`` orders epochs shard-locally.  :meth:`loss` collates
    each chunk of ``batch_size`` items (or takes an already-collated batch,
    for direct :meth:`step` calls).

    The optimizer is built by the first :meth:`train` / :meth:`step` and
    kept for later calls, so its learning-rate schedule spans the first
    call's ``ceil(len(instances) / batch_size) * n_epochs`` steps.
    """

    name = "pretrain"

    def __init__(self, model: TURLModel,
                 instances: Union[Sequence[TableInstance],
                                  TableInstanceStream],
                 candidate_builder: CandidateBuilder,
                 config: Optional[TURLConfig] = None, seed: int = 0,
                 use_visibility: bool = True,
                 journal: Optional[RunJournal] = None,
                 sanitize: bool = False, shuffle: str = "flat"):
        self.model = model
        #: the module whose parameters the engine optimizes.
        self.module = model
        self.instances = (instances
                          if isinstance(instances, TableInstanceStream)
                          else list(instances))
        self.candidates = candidate_builder
        self.config = config if config is not None else model.config
        self.masking = MaskingPolicy(self.config, model.vocab_size,
                                     model.entity_vocab_size)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.use_visibility = use_visibility
        self.optimizer = None
        self.journal = journal
        self.sanitize = sanitize
        self.shuffle = shuffle
        self._eval_instances: Optional[Sequence[TableInstance]] = None
        self._max_eval_tables = 50

    def _spec(self, n_epochs: int = 1,
              eval_every: Optional[int] = None) -> TrainSpec:
        """The paper's pre-training recipe as an engine spec."""
        return TrainSpec(epochs=n_epochs,
                         learning_rate=self.config.learning_rate,
                         weight_decay=self.config.weight_decay,
                         schedule="linear",
                         gradient_clip=self.config.gradient_clip,
                         batch_size=self.config.batch_size,
                         shuffle=self.shuffle,
                         seed=self.seed, eval_every=eval_every,
                         eval_at_end=True, sanitize=self.sanitize)

    # -- TrainableTask -----------------------------------------------------
    @property
    def _stream(self) -> Optional[TableInstanceStream]:
        instances = self.instances
        return instances if isinstance(instances, TableInstanceStream) else None

    def build_batches(self) -> Sequence[Any]:
        stream = self._stream
        if stream is not None:
            return list(range(len(stream)))
        return list(self.instances)

    def _resolve(self, item: Union[int, TableInstance]) -> TableInstance:
        if isinstance(item, (int, np.integer)):
            return self._stream.fetch(int(item))
        return item

    def collate_batch(self, instances: List[TableInstance]) -> Dict[str, Any]:
        """Pad ``instances`` into one batch; subclasses add their inputs."""
        return collate(instances)

    def loss(self, batch: Union[Dict[str, np.ndarray], List[TableInstance],
                                TableInstance, int],
             rng: np.random.Generator) -> StepOutput:
        if not isinstance(batch, dict):
            chunk = batch if isinstance(batch, list) else [batch]
            batch = self.collate_batch([self._resolve(item) for item in chunk])
        return self.compute_loss(batch, rng)

    def bucket_key(self, item: Union[int, TableInstance]):
        if isinstance(item, (int, np.integer)):
            return self._stream.bucket_of(int(item))
        return bucket_key(item)

    def shard_key(self, item: Union[int, TableInstance]) -> int:
        if isinstance(item, (int, np.integer)):
            return self._stream.shard_of(int(item))
        return 0

    def stream_fingerprint(self) -> Optional[str]:
        stream = self._stream
        return stream.fingerprint() if stream is not None else None

    def eval_metric(self) -> Optional[float]:
        if self._eval_instances is None:
            return None
        return self.evaluate_object_prediction(
            self._eval_instances, max_tables=self._max_eval_tables)

    def config_dict(self) -> dict:
        return self.config.to_dict()

    # -- joint objective --------------------------------------------------
    def joint_loss(self, batch: Dict[str, np.ndarray],
                   rng: np.random.Generator) -> Tuple[StepOutput, Tensor]:
        """Mask ``batch`` and evaluate the joint MLM + MER loss (Eqn. 7).

        Also returns the entity states of the masked batch, for objectives
        that add loss terms on top (see :meth:`compute_loss`).
        """
        masked = self.masking.apply(batch, rng)
        token_hidden, entity_hidden = self.model.encode(
            masked.batch, use_visibility=self.use_visibility)

        extras: Dict[str, float] = {"mlm": 0.0, "mer": 0.0}
        total = None
        if masked.n_mlm:
            mlm_logits = self.model.mlm_logits(token_hidden)
            mlm_loss = masked_cross_entropy(
                mlm_logits, np.maximum(masked.mlm_labels, 0),
                masked.mlm_labels != IGNORE)
            extras["mlm"] = mlm_loss.item()
            total = mlm_loss
        if masked.n_mer:
            candidate_ids, remapped = self.candidates.build(
                batch["entity_ids"], masked.mer_labels, rng)
            mer_logits = self.model.mer_logits(entity_hidden, candidate_ids)
            mer_loss = masked_cross_entropy(
                mer_logits, np.maximum(remapped, 0), remapped != IGNORE)
            extras["mer"] = mer_loss.item()
            total = mer_loss if total is None else total + mer_loss
        extras["tokens"] = int(batch["token_mask"].sum()
                               + batch["entity_mask"].sum())
        return StepOutput(loss=total, extras=extras), entity_hidden

    def compute_loss(self, batch: Dict[str, np.ndarray],
                     rng: np.random.Generator) -> StepOutput:
        """The step loss; subclasses add terms to :meth:`joint_loss`."""
        return self.joint_loss(batch, rng)[0]

    # -- one optimization step -------------------------------------------
    def step(self, batch: Dict[str, np.ndarray]) -> Dict[str, float]:
        """Mask, forward, compute the joint loss, and update parameters.

        Delegates to the engine's step executor; besides the losses, the
        result carries per-phase wall seconds (``forward_seconds`` /
        ``backward_seconds`` / ``optimizer_seconds``), the pre-clip gradient
        norm and the learning rate applied this step.
        """
        executor = Trainer(self, self._spec(), rng=self.rng,
                           optimizer=self.optimizer)
        result = executor.run_step(batch)
        self.optimizer = executor.optimizer
        return result

    # -- training loop ----------------------------------------------------
    def train(self, n_epochs: int = 1,
              eval_instances: Optional[Sequence[TableInstance]] = None,
              eval_every: Optional[int] = None,
              max_eval_tables: int = 50) -> PretrainStats:
        """Train for ``n_epochs`` passes over the corpus on the shared engine.

        When ``eval_instances`` is provided the object-entity-prediction
        probe runs on at most ``max_eval_tables`` of them every
        ``eval_every`` steps (and once at the end).

        When the pretrainer was built with a :class:`~repro.obs.RunJournal`,
        one header event plus one event per step / probe is appended.
        """
        self._eval_instances = eval_instances
        self._max_eval_tables = max_eval_tables
        trainer = Trainer(self, self._spec(n_epochs, eval_every=eval_every),
                          journal=self.journal, rng=self.rng,
                          optimizer=self.optimizer)
        engine_stats = trainer.fit()
        self.optimizer = trainer.optimizer
        return PretrainStats(
            losses=engine_stats.losses,
            mlm_losses=engine_stats.extras.get("mlm", []),
            mer_losses=engine_stats.extras.get("mer", []),
            eval_steps=engine_stats.eval_steps,
            eval_accuracies=engine_stats.eval_values,
            wall_seconds=engine_stats.wall_seconds,
            steps=engine_stats.steps,
        )

    def evaluate_object_prediction(self, instances: Sequence[TableInstance],
                                   max_tables: Optional[int] = None) -> float:
        """:func:`evaluate_object_prediction` on this pretrainer's model."""
        return evaluate_object_prediction(self.model, self.candidates,
                                          instances, max_tables=max_tables,
                                          use_visibility=self.use_visibility)


# -- Figure 7 probe ----------------------------------------------------------

#: Object entity cells the probe masks per table (one at a time).
PROBE_CELLS_PER_TABLE = 3


def evaluate_object_prediction(model: TURLModel,
                               candidate_builder: CandidateBuilder,
                               instances: Sequence[TableInstance],
                               max_tables: Optional[int] = None,
                               use_visibility: bool = True) -> float:
    """Top-1 accuracy of recovering masked object entities (Section 6.8).

    For each of the first ``max_tables`` tables, up to
    :data:`PROBE_CELLS_PER_TABLE` object entity cells are masked (entity and
    mention) one at a time, and the model ranks the MER candidate set from
    ``candidate_builder``; a hit means the true entity ranks first.  The
    caller's train/eval mode is restored on exit.
    """
    batch_size = model.config.batch_size
    with eval_mode(model), trace("pretrain/probe"):
        eval_rng = np.random.default_rng(12345)
        correct = total = 0
        probes: List[TableInstance] = []
        probe_positions: List[int] = []
        probe_truth: List[int] = []
        for instance in list(instances)[:max_tables]:
            object_positions = [
                i for i in range(instance.n_entities)
                if instance.entity_type[i] == ETYPE_OBJECT
                and instance.entity_ids[i] >= _FIRST_REAL_ID
            ]
            if not object_positions:
                continue
            if len(object_positions) > PROBE_CELLS_PER_TABLE:
                chosen = eval_rng.choice(len(object_positions),
                                         size=PROBE_CELLS_PER_TABLE,
                                         replace=False)
                object_positions = [object_positions[int(i)] for i in chosen]
            for position in object_positions:
                probes.append(instance)
                probe_positions.append(position)
                probe_truth.append(int(instance.entity_ids[position]))

        for start in range(0, len(probes), batch_size):
            chunk = probes[start:start + batch_size]
            positions = probe_positions[start:start + batch_size]
            truths = probe_truth[start:start + batch_size]
            batch = collate(chunk)
            mention_masked = np.zeros(batch["entity_ids"].shape, dtype=bool)
            labels = np.full(batch["entity_ids"].shape, IGNORE, dtype=np.int64)
            for i, (position, truth) in enumerate(zip(positions, truths)):
                batch["entity_ids"][i, position] = MASK_ID
                mention_masked[i, position] = True
                labels[i, position] = truth
            batch["mention_masked"] = mention_masked

            candidate_ids, remapped = candidate_builder.build(
                batch["entity_ids"], labels, eval_rng)
            with no_grad():
                _, entity_hidden = model.encode(
                    batch, use_visibility=use_visibility)
                logits = model.mer_logits(entity_hidden, candidate_ids)
            predictions = logits.data.argmax(axis=-1)
            for i, position in enumerate(positions):
                total += 1
                if predictions[i, position] == remapped[i, position]:
                    correct += 1
        return correct / total if total else 0.0


# -- checkpointing -----------------------------------------------------------

def save_checkpoint(directory: str, model: TURLModel,
                    tokenizer: WordPieceTokenizer,
                    entity_vocab: Vocabulary,
                    compress: bool = False) -> None:
    """Persist model weights, config, tokenizer and entity vocabulary.

    ``model.npz`` is stored uncompressed by default so serving workers can
    memory-map it zero-copy (``load_checkpoint(..., mmap=True)``); pass
    ``compress=True`` to trade that for a smaller archive.
    """
    os.makedirs(directory, exist_ok=True)
    save_state_dict(model.state_dict(), os.path.join(directory, "model.npz"),
                    compress=compress)
    with open(os.path.join(directory, "tokenizer.json"), "w") as handle:
        handle.write(tokenizer.to_json())
    with open(os.path.join(directory, "entity_vocab.json"), "w") as handle:
        handle.write(entity_vocab.to_json())
    import json

    with open(os.path.join(directory, "config.json"), "w") as handle:
        json.dump(model.config.to_dict(), handle)


def load_checkpoint(directory: str, mmap: Union[bool, str] = False):
    """Inverse of :func:`save_checkpoint`.

    Returns ``(model, tokenizer, entity_vocab)``.

    ``mmap=True`` binds the model's weights as read-only zero-copy views
    into ``model.npz`` (requires an uncompressed archive — the
    :func:`save_checkpoint` default); ``mmap="auto"`` tries the zero-copy
    path and silently falls back to the eager heap load for legacy
    compressed archives.
    """
    import json

    with open(os.path.join(directory, "config.json")) as handle:
        config = TURLConfig.from_dict(json.load(handle))
    with open(os.path.join(directory, "tokenizer.json")) as handle:
        tokenizer = WordPieceTokenizer.from_json(handle.read())
    with open(os.path.join(directory, "entity_vocab.json")) as handle:
        entity_vocab = Vocabulary.from_json(handle.read())
    model = TURLModel(len(tokenizer.vocab), len(entity_vocab), config)
    weights_path = os.path.join(directory, "model.npz")
    use_mmap = bool(mmap)
    if mmap == "auto":
        try:
            state = load_state(weights_path, mmap=True)
        except ValueError:
            state, use_mmap = load_state(weights_path), False
    else:
        state = load_state(weights_path, mmap=use_mmap)
    model.load_state_dict(state, copy=not use_mmap)
    return model, tokenizer, entity_vocab
