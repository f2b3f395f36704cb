"""Relation extraction (paper Section 6.4, Table 7, Figure 6).

Subject–object column pairs are annotated with the KB relations shared by
more than half of their linked entity pairs (majority voting, exactly the
paper's labeling rule).  TURL pools both columns per Eqn. 9 and classifies
the concatenation with per-relation sigmoids (Eqn. 12).  The MAP-vs-steps
curve used in Figure 6 is produced by :meth:`TURLRelationExtractor.finetune`
with ``map_every`` set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.batching import encode_table
from repro.core.linearize import Linearizer
from repro.core.model import TURLModel
from repro.data.corpus import TableCorpus
from repro.data.dataset import SPLIT_NAMES, DatasetMetadata, strategy_counter
from repro.data.table import Table
from repro.kb.knowledge_base import KnowledgeBase
from repro.nn import Linear, Module, Tensor, binary_cross_entropy_logits, eval_mode, no_grad, stack
from repro.obs import RunJournal, trace
from repro.train import TrainableTask, Trainer, TrainSpec
from repro.tasks.encoding import (
    InputAblation,
    apply_ablation_to_batch,
    column_representation,
    strip_metadata,
)
from repro.tasks.metrics import PrecisionRecallF1, average_precision, multilabel_micro_prf


@dataclass
class RelationInstance:
    """One labeled subject–object column pair."""

    table: Table
    subject_col: int
    object_col: int
    relations: Set[str]


@dataclass
class RelationDataset:
    """Labeled column pairs per split; implements the
    :class:`repro.data.Dataset` protocol."""

    relation_names: List[str]
    train: List[RelationInstance] = field(default_factory=list)
    validation: List[RelationInstance] = field(default_factory=list)
    test: List[RelationInstance] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.train) + len(self.validation) + len(self.test)

    def __iter__(self):
        yield from self.train
        yield from self.validation
        yield from self.test

    def instances(self, split: str = "train") -> List[RelationInstance]:
        try:
            return list(getattr(self, split))
        except AttributeError:
            raise KeyError(f"unknown split {split!r}; "
                           f"expected one of {SPLIT_NAMES}") from None

    @property
    def metadata(self) -> DatasetMetadata:
        return DatasetMetadata(
            source="memory", n_records=len(self),
            split_sizes={name: len(getattr(self, name))
                         for name in SPLIT_NAMES},
            strategy_counts=strategy_counter(self),
            extra={"n_relations": len(self.relation_names)})

    @property
    def relation_index(self) -> Dict[str, int]:
        return {name: i for i, name in enumerate(self.relation_names)}

    def label_vector(self, instance: RelationInstance) -> np.ndarray:
        vector = np.zeros(len(self.relation_names))
        index = self.relation_index
        for relation in instance.relations:
            if relation in index:
                vector[index[relation]] = 1.0
        return vector


def column_pair_relations(table: Table, subject_col: int, object_col: int,
                          kb: KnowledgeBase, min_pairs: int = 3) -> Optional[Set[str]]:
    """Relations shared by more than half of the linked entity pairs."""
    pairs = []
    subjects = table.columns[subject_col].cells
    objects = table.columns[object_col].cells
    for subject_cell, object_cell in zip(subjects, objects):
        if subject_cell.is_linked and object_cell.is_linked:
            if subject_cell.entity_id in kb and object_cell.entity_id in kb:
                pairs.append((subject_cell.entity_id, object_cell.entity_id))
    if len(pairs) < min_pairs:
        return None
    counts: Counter = Counter()
    for subject, object_ in pairs:
        for relation in kb.relations_between(subject, object_):
            counts[relation] += 1
    shared = {r for r, c in counts.items() if c > len(pairs) / 2}
    return shared or None


def build_relation_dataset(kb: KnowledgeBase, train: TableCorpus,
                           validation: TableCorpus, test: TableCorpus,
                           min_relation_instances: int = 20) -> RelationDataset:
    def collect(corpus: TableCorpus) -> List[RelationInstance]:
        instances = []
        for table in corpus:
            subject = table.subject_column
            for col in table.entity_columns():
                if col == subject:
                    continue
                relations = column_pair_relations(table, subject, col, kb)
                if relations:
                    instances.append(RelationInstance(table, subject, col, relations))
        return instances

    train_instances = collect(train)
    counts: Counter = Counter()
    for instance in train_instances:
        counts.update(instance.relations)
    relation_names = sorted(r for r, c in counts.items()
                            if c >= min_relation_instances)
    kept = set(relation_names)

    def restrict(instances: List[RelationInstance]) -> List[RelationInstance]:
        out = []
        for instance in instances:
            relations = instance.relations & kept
            if relations:
                out.append(RelationInstance(instance.table, instance.subject_col,
                                            instance.object_col, relations))
        return out

    return RelationDataset(
        relation_names=relation_names,
        train=restrict(train_instances),
        validation=restrict(collect(validation)),
        test=restrict(collect(test)),
    )


class RelationExtractionTask(TrainableTask):
    """Relation extraction as an engine task (one item = one column pair)."""

    name = "task/relation_extraction"

    def __init__(self, extractor: "TURLRelationExtractor",
                 dataset: RelationDataset, map_instances: int = 40):
        self.module = extractor
        self.extractor = extractor
        self.dataset = dataset
        self.map_instances = map_instances

    def build_batches(self) -> List[RelationInstance]:
        return list(self.dataset.train)

    def loss(self, instance: RelationInstance,
             rng: np.random.Generator) -> Tensor:
        logits = self.extractor.pair_logits(instance).reshape(1, -1)
        labels = self.dataset.label_vector(instance).reshape(1, -1)
        return binary_cross_entropy_logits(logits, labels)

    def eval_metric(self) -> float:
        return self.extractor.validation_map(self.dataset,
                                             max_instances=self.map_instances)

    def config_dict(self) -> Dict[str, int]:
        return {"n_relations": len(self.dataset.relation_names)}


class TURLRelationExtractor(Module):
    """TURL fine-tuned for column-pair relation extraction (Eqn. 12)."""

    def __init__(self, model: TURLModel, linearizer: Linearizer,
                 n_relations: int, seed: int = 0,
                 ablation: InputAblation = InputAblation.full()):
        super().__init__()
        self.model = model
        self.linearizer = linearizer
        self.ablation = ablation
        rng = np.random.default_rng(seed)
        self.classifier = Linear(4 * model.config.dim, n_relations, rng)

    def _pair_representation(self, instance: RelationInstance) -> Tensor:
        table = (instance.table if self.ablation.use_metadata
                 else strip_metadata(instance.table))
        encoded, batch = encode_table(self.linearizer, table)
        apply_ablation_to_batch(batch, self.ablation)
        token_hidden, entity_hidden = self.model.encode(batch)
        subject = column_representation(token_hidden[0], entity_hidden[0],
                                        encoded, instance.subject_col)
        object_ = column_representation(token_hidden[0], entity_hidden[0],
                                        encoded, instance.object_col)
        return stack([subject, object_], axis=0).reshape(-1)

    def pair_logits(self, instance: RelationInstance) -> Tensor:
        return self.classifier(self._pair_representation(instance))

    # -- training ---------------------------------------------------------
    def training_task(self, dataset: RelationDataset,
                      map_instances: int = 40) -> RelationExtractionTask:
        """This head's fine-tuning objective for :class:`repro.train.Trainer`."""
        return RelationExtractionTask(self, dataset, map_instances=map_instances)

    def finetune(self, dataset: RelationDataset, epochs: int = 3,
                 lr: float = 1e-3, seed: int = 0,
                 max_instances: Optional[int] = None,
                 map_every: Optional[int] = None,
                 map_instances: int = 40,
                 journal: Optional[RunJournal] = None) -> Dict[str, List[float]]:
        """Fine-tune; optionally record validation MAP every ``map_every``
        steps (Figure 6).  Returns ``{"losses": [...], "map_steps": [...],
        "map_values": [...]}``.

        Shorthand for ``Trainer(self.training_task(dataset, map_instances),
        TrainSpec(..., eval_every=map_every), journal=journal).fit()``; for
        the paper recipe (linear decay, clipping) build the
        :class:`TrainSpec` directly.
        """
        spec = TrainSpec(epochs=epochs, learning_rate=lr, seed=seed,
                         max_items=max_instances, eval_every=map_every)
        task = self.training_task(dataset, map_instances=map_instances)
        stats = Trainer(task, spec, journal=journal).fit()
        return {"losses": stats.losses, "map_steps": stats.eval_steps,
                "map_values": stats.eval_values}

    # -- inference -----------------------------------------------------------
    def predict(self, instances: Sequence[RelationInstance],
                dataset: RelationDataset, threshold: float = 0.5) -> List[Set[str]]:
        predictions = []
        with trace("task/relation_extraction/predict"), eval_mode(self), no_grad():
            for instance in instances:
                logits = self.pair_logits(instance).data
                probabilities = 1.0 / (1.0 + np.exp(-logits))
                predicted = {dataset.relation_names[j]
                             for j in np.where(probabilities >= threshold)[0]}
                if not predicted:
                    predicted = {dataset.relation_names[int(probabilities.argmax())]}
                predictions.append(predicted)
        return predictions

    def evaluate(self, instances: Sequence[RelationInstance],
                 dataset: RelationDataset) -> PrecisionRecallF1:
        predictions = self.predict(instances, dataset)
        return multilabel_micro_prf(predictions, [i.relations for i in instances])

    def validation_map(self, dataset: RelationDataset,
                       max_instances: int = 40) -> float:
        """Mean average precision over ranked relations (Figure 6 metric)."""
        instances = dataset.validation[:max_instances]
        scores = []
        with eval_mode(self), no_grad():
            for instance in instances:
                logits = self.pair_logits(instance).data
                ranked = [dataset.relation_names[j] for j in np.argsort(-logits)]
                scores.append(average_precision(ranked, instance.relations))
        return float(np.mean(scores)) if scores else 0.0
