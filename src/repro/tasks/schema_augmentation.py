"""Schema augmentation (paper Section 6.7, Tables 10–11).

Given a caption and zero or more seed headers, recommend headers from a
header vocabulary collected over the pre-training corpus (headers appearing
in at least ``min_tables`` tables, normalized).  TURL encodes the caption +
seed headers + a ``[MASK]`` slot and scores the vocabulary with a learned
header-embedding matrix, fine-tuned with binary cross-entropy.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.core.batching import encode_table
from repro.core.linearize import Linearizer
from repro.core.model import TURLModel
from repro.data.corpus import TableCorpus
from repro.data.table import Column, Table
from repro.nn import Module, Parameter, Tensor, binary_cross_entropy_logits, eval_mode, no_grad
from repro.obs import RunJournal, trace
from repro.train import TrainableTask, Trainer, TrainSpec
from repro.tasks.metrics import TaskMetrics, average_precision, mean_average_precision

_WS = re.compile(r"\s+")


def normalize_header(header: str) -> str:
    """Simple normalization: lower-case, collapse whitespace, strip."""
    return _WS.sub(" ", header.strip().lower())


def build_header_vocabulary(corpus: TableCorpus, min_tables: int = 3) -> List[str]:
    """Headers appearing in at least ``min_tables`` distinct tables."""
    counts: Counter = Counter()
    for table in corpus:
        for header in {normalize_header(h) for h in table.headers if h.strip()}:
            counts[header] += 1
    return sorted(h for h, c in counts.items() if c >= min_tables)


@dataclass
class SchemaInstance:
    """A schema-augmentation query."""

    table: Table
    seed_headers: List[str]
    target_headers: Set[str]

    @property
    def caption(self) -> str:
        return self.table.caption_text()


def build_schema_instances(corpus: TableCorpus, header_vocabulary: Sequence[str],
                           n_seed: int = 0) -> List[SchemaInstance]:
    vocabulary = set(header_vocabulary)
    instances = []
    for table in corpus:
        headers = [normalize_header(h) for h in table.headers if h.strip()]
        headers = [h for h in headers if h in vocabulary]
        if len(headers) <= n_seed:
            continue
        seeds = headers[:n_seed]
        targets = set(headers[n_seed:]) - set(seeds)
        if targets:
            instances.append(SchemaInstance(table, seeds, targets))
    return instances


class SchemaAugmentationTask(TrainableTask):
    """Header recommendation as an engine task (one item = one query).

    Queries whose targets fall outside the header vocabulary are skipped.
    """

    name = "task/schema_augmentation"

    def __init__(self, augmenter: "TURLSchemaAugmenter",
                 instances: Sequence[SchemaInstance]):
        self.module = augmenter
        self.augmenter = augmenter
        self.instances = list(instances)

    def build_batches(self) -> List[SchemaInstance]:
        return list(self.instances)

    def loss(self, instance: SchemaInstance,
             rng: np.random.Generator) -> Optional[Tensor]:
        augmenter = self.augmenter
        labels = np.zeros(len(augmenter.header_vocabulary))
        for header in instance.target_headers:
            position = augmenter.header_index.get(header)
            if position is not None:
                labels[position] = 1.0
        if labels.sum() == 0:
            return None
        logits = augmenter.header_logits(instance)
        return binary_cross_entropy_logits(logits, labels)

    def config_dict(self) -> Dict[str, int]:
        return {"n_headers": len(self.augmenter.header_vocabulary)}


class TURLSchemaAugmenter(Module):
    """TURL fine-tuned for header recommendation."""

    def __init__(self, model: TURLModel, linearizer: Linearizer,
                 header_vocabulary: Sequence[str], seed: int = 0):
        super().__init__()
        self.model = model
        self.linearizer = linearizer
        self.header_vocabulary = list(header_vocabulary)
        self.header_index = {h: i for i, h in enumerate(self.header_vocabulary)}
        # Header embeddings initialized from mean word embeddings.
        dim = model.config.dim
        word = model.embedding.word.weight.data
        matrix = np.zeros((len(self.header_vocabulary), dim))
        for i, header in enumerate(self.header_vocabulary):
            ids = linearizer.tokenizer.encode(header)
            if ids:
                matrix[i] = word[ids].mean(axis=0)
        self.header_embeddings = Parameter(matrix)

    def _query_table(self, instance: SchemaInstance) -> Table:
        """Caption + seed headers as empty columns."""
        source = instance.table
        columns = [Column(header, "text", []) for header in instance.seed_headers]
        if not columns:
            columns = [Column("", "text", [])]
        return Table(
            table_id=f"{source.table_id}_schema",
            page_title=source.page_title,
            section_title=source.section_title,
            caption=source.caption,
            topic_entity=None,
            subject_column=0,
            columns=columns,
        )

    def _mask_hidden(self, instance: SchemaInstance) -> Tensor:
        encoded, batch = encode_table(self.linearizer,
                                      self._query_table(instance),
                                      extra_entity_slots=1)
        _, entity_hidden = self.model.encode(batch)
        return entity_hidden[0, encoded.n_entities - 1]

    def header_logits(self, instance: SchemaInstance) -> Tensor:
        hidden = self._mask_hidden(instance).reshape(1, -1)
        return (hidden @ self.header_embeddings.transpose()).reshape(-1)

    def training_task(self, instances: Sequence[SchemaInstance]
                      ) -> SchemaAugmentationTask:
        """This head's fine-tuning objective for :class:`repro.train.Trainer`."""
        return SchemaAugmentationTask(self, instances)

    def finetune(self, instances: Sequence[SchemaInstance], epochs: int = 2,
                 lr: float = 1e-3, seed: int = 0,
                 max_instances: Optional[int] = None,
                 journal: Optional[RunJournal] = None) -> List[float]:
        """BCE fine-tuning; returns per-epoch losses.

        Shorthand for ``Trainer(self.training_task(instances),
        TrainSpec(...), journal=journal).fit()``; for the paper recipe
        (linear decay, clipping) build the :class:`TrainSpec` directly.
        """
        spec = TrainSpec(epochs=epochs, learning_rate=lr, seed=seed,
                         max_items=max_instances)
        stats = Trainer(self.training_task(instances), spec,
                        journal=journal).fit()
        return stats.epoch_losses

    def rank(self, instance: SchemaInstance) -> List[str]:
        with trace("task/schema_augmentation/rank"), eval_mode(self), no_grad():
            logits = self.header_logits(instance).data
        order = np.argsort(-logits)
        seeds = set(instance.seed_headers)
        return [self.header_vocabulary[int(i)] for i in order
                if self.header_vocabulary[int(i)] not in seeds]

    def evaluate(self, instances: Sequence[SchemaInstance]) -> TaskMetrics:
        """MAP over header rankings (paper Table 10)."""
        rankings = [self.rank(instance) for instance in instances]
        truths = [instance.target_headers for instance in instances]
        return TaskMetrics(
            task="schema_augmentation",
            values={"map": mean_average_precision(rankings, truths)},
            primary="map")

    def average_precision_for(self, instance: SchemaInstance) -> float:
        """Per-query AP (paper Table 11 case study)."""
        return average_precision(self.rank(instance), instance.target_headers)
