"""Row population (paper Section 6.5, Table 8).

Given a partial table (caption + optional seed subject entities), rank
candidate entities to fill the subject column.  All methods share one
candidate generation module, as in the paper: a BM25 search over the
pre-training corpus (query = caption, or seed-entity mentions when seeds
exist) whose retrieved tables contribute their subject entities as
candidates — so Recall is identical across methods and only MAP
differentiates them.

TURL appends a ``[MASK]`` entity slot to the partial table and ranks
candidates with ``P(e) = sigmoid(LINEAR(h_mask) · e_e)``, fine-tuned with
the multi-label soft-margin loss of Eqn. 13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.batching import encode_table
from repro.core.linearize import Linearizer
from repro.core.model import TURLModel
from repro.data.corpus import TableCorpus
from repro.data.table import Column, EntityCell, Table
from repro.nn import Module, Parameter, Tensor, binary_cross_entropy_logits, eval_mode, no_grad
from repro.obs import RunJournal, trace
from repro.train import TrainableTask, Trainer, TrainSpec
from repro.retrieval.bm25 import BM25Index
from repro.tasks.metrics import TaskMetrics, mean_average_precision, recall_at_k
from repro.text.vocab import SPECIAL_TOKENS

_FIRST_REAL_ID = len(SPECIAL_TOKENS)


@dataclass
class PopulationInstance:
    """A partial table: caption, seed subject entities, and the targets."""

    table: Table
    seed_entities: List[str]
    target_entities: Set[str]

    @property
    def caption(self) -> str:
        return self.table.caption_text()


def build_population_instances(corpus: TableCorpus, n_seed: int,
                               min_subject_entities: int) -> List[PopulationInstance]:
    """One instance per table with enough linked subject entities."""
    instances = []
    for table in corpus:
        subjects = table.subject_entities()
        if len(subjects) <= max(min_subject_entities, n_seed):
            continue
        seeds = subjects[:n_seed]
        targets = set(subjects[n_seed:]) - set(seeds)
        if targets:
            instances.append(PopulationInstance(table, seeds, targets))
    return instances


def partial_table(instance: PopulationInstance, kb=None) -> Table:
    """The visible part of the table: caption + subject column seeds."""
    source = instance.table
    subject = source.columns[source.subject_column]
    cells = []
    for cell in subject.cells:
        if cell.is_linked and cell.entity_id in instance.seed_entities:
            cells.append(EntityCell(cell.entity_id, cell.mention))
        if len(cells) == len(instance.seed_entities):
            break
    return Table(
        table_id=f"{source.table_id}_partial",
        page_title=source.page_title,
        section_title=source.section_title,
        caption=source.caption,
        topic_entity=source.topic_entity,
        subject_column=0,
        columns=[Column(subject.header, "entity", cells)],
    )


class PopulationCandidateGenerator:
    """BM25 candidate generation shared by every method (Section 6.5)."""

    def __init__(self, corpus: TableCorpus, k_tables: int = 20):
        self.corpus = corpus
        self.k_tables = k_tables
        self.index = BM25Index({t.table_id: t.caption_text() for t in corpus})
        self._subjects: Dict[str, List[str]] = {
            t.table_id: t.subject_entities() for t in corpus}
        self._mentions: Dict[str, str] = {}
        for table in corpus:
            for cell in table.subject_cells():
                if cell.is_linked and cell.entity_id not in self._mentions:
                    self._mentions[cell.entity_id] = cell.mention

    def query_for(self, instance: PopulationInstance) -> str:
        if instance.seed_entities:
            mentions = [self._mentions.get(e, "") for e in instance.seed_entities]
            return instance.caption + " " + " ".join(mentions)
        return instance.caption

    def candidates_for(self, instance: PopulationInstance) -> List[str]:
        """Ranked-by-retrieval candidate entities (deduplicated)."""
        results = self.index.search(self.query_for(instance), k=self.k_tables)
        seen: Dict[str, None] = {}
        for table_id, _score in results:
            for entity_id in self._subjects.get(table_id, ()):
                if entity_id not in seen and entity_id not in instance.seed_entities:
                    seen[entity_id] = None
        return list(seen)

    def retrieved_tables(self, instance: PopulationInstance) -> List[str]:
        return [table_id for table_id, _ in
                self.index.search(self.query_for(instance), k=self.k_tables)]

    def recall(self, instances: Sequence[PopulationInstance]) -> float:
        """Candidate-set recall, identical for every ranking method."""
        scores = []
        for instance in instances:
            candidates = set(self.candidates_for(instance))
            scores.append(len(candidates & instance.target_entities)
                          / len(instance.target_entities))
        return float(np.mean(scores)) if scores else 0.0


class RowPopulationTask(TrainableTask):
    """Row population as an engine task (one item = one partial table).

    Items without candidates or without a positive target among them are
    skipped (no optimization step).
    """

    name = "task/row_population"

    def __init__(self, populator: "TURLRowPopulator",
                 instances: Sequence[PopulationInstance],
                 generator: PopulationCandidateGenerator,
                 max_candidates: int = 100):
        self.module = populator
        self.populator = populator
        self.instances = list(instances)
        self.generator = generator
        self.max_candidates = max_candidates

    def build_batches(self) -> List[PopulationInstance]:
        return list(self.instances)

    def loss(self, instance: PopulationInstance,
             rng: np.random.Generator) -> Optional[Tensor]:
        candidates = self.generator.candidates_for(instance)[:self.max_candidates]
        if not candidates:
            return None
        labels = np.asarray([1.0 if c in instance.target_entities else 0.0
                             for c in candidates])
        if labels.sum() == 0:
            return None
        logits = self.populator._candidate_logits(instance, candidates)
        return binary_cross_entropy_logits(logits, labels)


class TURLRowPopulator(Module):
    """TURL fine-tuned for row population (Eqn. 13)."""

    def __init__(self, model: TURLModel, linearizer: Linearizer, seed: int = 0):
        super().__init__()
        self.model = model
        self.linearizer = linearizer
        # Compact-scale adaptation (see DESIGN.md): the candidate's pre-trained
        # embedding similarity to the seed entities enters the score directly
        # with a learned weight; the paper's full-size encoder learns this
        # routing internally.
        self.seed_weight = Parameter(np.array([1.0]))
        self._dim_scale = 1.0 / np.sqrt(model.config.dim)

    def _mask_hidden(self, instance: PopulationInstance) -> Tensor:
        """Hidden state of the appended [MASK] entity slot."""
        table = partial_table(instance)
        encoded, batch = encode_table(self.linearizer, table,
                                      extra_entity_slots=1)
        _, entity_hidden = self.model.encode(batch)
        return entity_hidden[0, encoded.n_entities - 1]

    def _candidate_logits(self, instance: PopulationInstance,
                          candidates: Sequence[str]) -> Tensor:
        hidden = self._mask_hidden(instance)
        vocab_ids = np.asarray(
            [self.linearizer.entity_vocab.id_of(c) for c in candidates],
            dtype=np.int64)
        projected = self.model.mer_project(hidden.reshape(1, -1))
        vectors = self.model.embedding.entity.weight.take_rows(vocab_ids)
        logits = (projected @ vectors.transpose()).reshape(-1) * self._dim_scale
        if instance.seed_entities:
            seed_ids = np.asarray(
                [self.linearizer.entity_vocab.id_of(e)
                 for e in instance.seed_entities], dtype=np.int64)
            table = self.model.embedding.entity.weight.data
            seed_mean = table[seed_ids].mean(axis=0)
            similarity = (table[vocab_ids] @ seed_mean) * self._dim_scale
            logits = logits + self.seed_weight * Tensor(similarity)
        return logits

    def training_task(self, instances: Sequence[PopulationInstance],
                      generator: PopulationCandidateGenerator,
                      max_candidates: int = 100) -> RowPopulationTask:
        """This head's fine-tuning objective for :class:`repro.train.Trainer`."""
        return RowPopulationTask(self, instances, generator,
                                 max_candidates=max_candidates)

    def finetune(self, instances: Sequence[PopulationInstance],
                 generator: PopulationCandidateGenerator, epochs: int = 2,
                 lr: float = 1e-3, seed: int = 0,
                 max_instances: Optional[int] = None,
                 max_candidates: int = 100,
                 journal: Optional[RunJournal] = None) -> List[float]:
        """Eqn. 13 fine-tuning; returns per-epoch losses.

        Shorthand for ``Trainer(self.training_task(instances, generator,
        max_candidates), TrainSpec(...), journal=journal).fit()``; for the
        paper recipe (linear decay, clipping) build the :class:`TrainSpec`
        directly.
        """
        spec = TrainSpec(epochs=epochs, learning_rate=lr, seed=seed,
                         max_items=max_instances)
        task = self.training_task(instances, generator,
                                  max_candidates=max_candidates)
        stats = Trainer(task, spec, journal=journal).fit()
        return stats.epoch_losses

    def rank(self, instance: PopulationInstance,
             candidates: Sequence[str]) -> List[str]:
        if not candidates:
            return []
        with trace("task/row_population/rank"), eval_mode(self), no_grad():
            logits = self._candidate_logits(instance, candidates).data
        order = np.argsort(-logits)
        return [candidates[int(i)] for i in order]

    def evaluate(self, instances: Sequence[PopulationInstance],
                 generator: PopulationCandidateGenerator) -> TaskMetrics:
        """MAP over candidate rankings (paper Table 8)."""
        rankings = []
        truths = []
        for instance in instances:
            candidates = generator.candidates_for(instance)
            rankings.append(self.rank(instance, candidates))
            truths.append(instance.target_entities)
        return TaskMetrics(
            task="row_population",
            values={"map": mean_average_precision(rankings, truths)},
            primary="map")
