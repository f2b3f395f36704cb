"""Column type annotation (paper Section 6.3, Tables 5–6).

Columns are annotated with the set of KB types common to all their linked
entities (multi-label).  TURL pools each column per Eqn. 9 and classifies
with per-type sigmoids (Eqns. 10–11); input ablations reproduce the rows of
Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.core.batching import encode_table, group_by_table
from repro.core.context import TURLContext
from repro.core.linearize import Linearizer
from repro.core.model import TURLModel
from repro.data.corpus import TableCorpus
from repro.data.dataset import SPLIT_NAMES, DatasetMetadata, strategy_counter
from repro.data.table import Table
from repro.kb.knowledge_base import KnowledgeBase
from repro.nn import Linear, Module, Tensor, binary_cross_entropy_logits, eval_mode, no_grad, stack
from repro.obs import RunJournal, get_registry, trace
from repro.train import TrainableTask, Trainer, TrainSpec
from repro.tasks.encoding import (
    InputAblation,
    apply_ablation_to_batch,
    column_representation,
    strip_metadata,
)
from repro.tasks.metrics import PrecisionRecallF1, multilabel_micro_prf


@dataclass
class ColumnInstance:
    """One labeled column."""

    table: Table
    col: int
    types: Set[str]


@dataclass
class ColumnTypeDataset:
    """Train/validation/test column instances plus the type vocabulary.

    Implements the :class:`repro.data.Dataset` protocol (``__len__`` /
    ``__iter__`` / ``instances`` / ``metadata``) so it plugs into any
    dataset-driven entry point.
    """

    type_names: List[str]
    train: List[ColumnInstance] = field(default_factory=list)
    validation: List[ColumnInstance] = field(default_factory=list)
    test: List[ColumnInstance] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.train) + len(self.validation) + len(self.test)

    def __iter__(self):
        yield from self.train
        yield from self.validation
        yield from self.test

    def instances(self, split: str = "train") -> List[ColumnInstance]:
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
            extra={"n_types": len(self.type_names)})

    @property
    def type_index(self) -> Dict[str, int]:
        return {name: i for i, name in enumerate(self.type_names)}

    def label_vector(self, instance: ColumnInstance) -> np.ndarray:
        vector = np.zeros(len(self.type_names))
        index = self.type_index
        for type_name in instance.types:
            if type_name in index:
                vector[index[type_name]] = 1.0
        return vector


def column_types(table: Table, col: int, kb: KnowledgeBase,
                 min_linked: int = 3) -> Optional[Set[str]]:
    """Types shared by every linked entity of the column (paper's
    'common types of its entities'), or None if under-linked."""
    linked = [cell.entity_id for cell in table.columns[col].cells if cell.is_linked]
    linked = [e for e in linked if e in kb]
    if len(linked) < min_linked:
        return None
    common: Optional[Set[str]] = None
    for entity_id in linked:
        types = set(kb.types_of(entity_id))
        common = types if common is None else common & types
    return common or None


def build_column_type_dataset(kb: KnowledgeBase, train: TableCorpus,
                              validation: TableCorpus, test: TableCorpus,
                              min_type_instances: int = 20) -> ColumnTypeDataset:
    """Collect labeled columns and the filtered type vocabulary."""

    def collect(corpus: TableCorpus) -> List[ColumnInstance]:
        instances = []
        for table in corpus:
            for col in table.entity_columns():
                types = column_types(table, col, kb)
                if types:
                    instances.append(ColumnInstance(table, col, types))
        return instances

    train_instances = collect(train)
    counts: Dict[str, int] = {}
    for instance in train_instances:
        for type_name in instance.types:
            counts[type_name] = counts.get(type_name, 0) + 1
    type_names = sorted(t for t, c in counts.items() if c >= min_type_instances)
    kept = set(type_names)

    def restrict(instances: List[ColumnInstance]) -> List[ColumnInstance]:
        restricted = []
        for instance in instances:
            types = instance.types & kept
            if types:
                restricted.append(ColumnInstance(instance.table, instance.col, types))
        return restricted

    return ColumnTypeDataset(
        type_names=type_names,
        train=restrict(train_instances),
        validation=restrict(collect(validation)),
        test=restrict(collect(test)),
    )


class ColumnTypeTask(TrainableTask):
    """Column type annotation as an engine task (one item = one table group)."""

    name = "task/column_type"

    def __init__(self, annotator: "TURLColumnTypeAnnotator",
                 dataset: ColumnTypeDataset):
        self.module = annotator
        self.annotator = annotator
        self.dataset = dataset

    def build_batches(self) -> List[List[ColumnInstance]]:
        by_table = group_by_table(self.dataset.train)
        return [by_table[table_id] for table_id in sorted(by_table)]

    def item_size(self, group: List[ColumnInstance]) -> int:
        return len(group)

    def loss(self, group: List[ColumnInstance], rng: np.random.Generator) -> Tensor:
        cols = [g.col for g in group]
        labels = np.stack([self.dataset.label_vector(g) for g in group])
        logits = self.annotator.column_logits(group[0].table, cols)
        return binary_cross_entropy_logits(logits, labels)

    def eval_metric(self) -> Optional[float]:
        if not self.dataset.validation:
            return None
        return self.annotator.evaluate(self.dataset.validation, self.dataset).f1

    def config_dict(self) -> Dict[str, int]:
        return {"n_types": len(self.dataset.type_names)}


class TURLColumnTypeAnnotator(Module):
    """TURL fine-tuned for multi-label column type annotation."""

    def __init__(self, model: TURLModel, linearizer: Linearizer,
                 n_types: int, seed: int = 0,
                 ablation: InputAblation = InputAblation.full()):
        super().__init__()
        self.model = model
        self.linearizer = linearizer
        self.ablation = ablation
        rng = np.random.default_rng(seed)
        self.classifier = Linear(2 * model.config.dim, n_types, rng)

    def _encode_table(self, table: Table):
        source = table if self.ablation.use_metadata else strip_metadata(table)
        instance, batch = encode_table(self.linearizer, source)
        apply_ablation_to_batch(batch, self.ablation)
        token_hidden, entity_hidden = self.model.encode(batch)
        return instance, token_hidden[0], entity_hidden[0]

    def column_logits(self, table: Table, cols: Sequence[int]) -> Tensor:
        """(n_cols, n_types) logits for the requested columns of one table."""
        instance, token_hidden, entity_hidden = self._encode_table(table)
        pooled = [column_representation(token_hidden, entity_hidden, instance, col)
                  for col in cols]
        return self.classifier(stack(pooled, axis=0))

    # -- training ---------------------------------------------------------
    def training_task(self, dataset: ColumnTypeDataset) -> ColumnTypeTask:
        """This head's fine-tuning objective for :class:`repro.train.Trainer`."""
        return ColumnTypeTask(self, dataset)

    def finetune(self, dataset: ColumnTypeDataset, epochs: int = 5,
                 lr: float = 1e-3, seed: int = 0,
                 max_instances: Optional[int] = None,
                 journal: Optional[RunJournal] = None) -> List[float]:
        """Fine-tune all parameters with BCE loss; returns per-epoch losses.

        Shorthand for ``Trainer(self.training_task(dataset), TrainSpec(...),
        journal=journal).fit()``; ``max_instances`` subsamples whole tables
        (see :func:`repro.train.subsample_items`).  For the paper recipe
        (linear decay, clipping) build the :class:`TrainSpec` directly.
        """
        spec = TrainSpec(epochs=epochs, learning_rate=lr, seed=seed,
                         max_items=max_instances)
        stats = Trainer(self.training_task(dataset), spec, journal=journal).fit()
        return stats.epoch_losses

    # -- inference -----------------------------------------------------------
    def predict(self, instances: Sequence[ColumnInstance],
                dataset: ColumnTypeDataset, threshold: float = 0.5) -> List[Set[str]]:
        by_table = group_by_table(enumerate(instances),
                                  table_of=lambda pair: pair[1].table)
        get_registry().counter("task.column_type.predictions").inc(len(instances))
        results: Dict[int, Set[str]] = {}
        with trace("task/column_type/predict"), eval_mode(self), no_grad():
            for group in by_table.values():
                cols = [inst.col for _, inst in group]
                logits = self.column_logits(group[0][1].table, cols).data
                probabilities = 1.0 / (1.0 + np.exp(-logits))
                for (original_index, _), row in zip(group, probabilities):
                    predicted = {dataset.type_names[j]
                                 for j in np.where(row >= threshold)[0]}
                    if not predicted:  # always emit the single best type
                        predicted = {dataset.type_names[int(row.argmax())]}
                    results[original_index] = predicted
        return [results[i] for i in range(len(instances))]

    def evaluate(self, instances: Sequence[ColumnInstance],
                 dataset: ColumnTypeDataset) -> PrecisionRecallF1:
        predictions = self.predict(instances, dataset)
        truths = [instance.types for instance in instances]
        return multilabel_micro_prf(predictions, truths)

    def per_type_f1(self, instances: Sequence[ColumnInstance],
                    dataset: ColumnTypeDataset,
                    type_names: Sequence[str]) -> Dict[str, float]:
        """Per-type F1 (paper Table 6)."""
        predictions = self.predict(instances, dataset)
        report: Dict[str, float] = {}
        for type_name in type_names:
            tp = fp = fn = 0
            for predicted, instance in zip(predictions, instances):
                has = type_name in instance.types
                said = type_name in predicted
                tp += has and said
                fp += said and not has
                fn += has and not said
            report[type_name] = PrecisionRecallF1.from_counts(tp, fp, fn).f1
        return report
