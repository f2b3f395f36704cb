"""Entity linking (paper Section 6.2, Table 4).

The task follows the paper's two-stage setting: a lookup service proposes up
to 50 candidates per mention (candidate generation), and the model under
test disambiguates.  TURL encodes the table with every cell's entity
embedding masked — only cell text and metadata are available, exactly the
downstream condition — and scores each KB candidate by matching the cell's
contextualized representation against a candidate representation built from
the candidate's *name, description and types* (Eqn. 8).

Scoring counts follow the paper: a false positive is a wrong link; a mention
with no candidates yields no prediction and only hurts recall.  The "Oracle"
row counts an instance correct whenever the truth is among the candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.batching import encode_table, group_by_table
from repro.core.context import TURLContext
from repro.core.linearize import Linearizer
from repro.core.model import TURLModel
from repro.data.corpus import TableCorpus
from repro.data.table import Table
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.lookup import LookupService
from repro.nn import (
    Embedding,
    Linear,
    Module,
    Parameter,
    Tensor,
    concat,
    cross_entropy_logits,
    eval_mode,
    no_grad,
    stack,
)
from repro.obs import RunJournal, trace
from repro.train import TrainableTask, Trainer, TrainSpec
from repro.tasks.metrics import PrecisionRecallF1
from repro.text.tokenizer import WordPieceTokenizer
from repro.text.vocab import MASK_ID, PAD_ID


@dataclass
class LinkingInstance:
    """One mention to disambiguate."""

    table: Table
    row: int
    col: int
    mention: str
    true_id: str
    candidates: List[str]
    candidate_scores: List[float] = field(default_factory=list)

    @property
    def truth_in_candidates(self) -> bool:
        return self.true_id in self.candidates


def build_linking_dataset(corpus: TableCorpus, lookup: LookupService,
                          max_candidates: int = 50,
                          require_truth: bool = False,
                          max_instances: Optional[int] = None,
                          seed: int = 0) -> List[LinkingInstance]:
    """Extract linked mentions with lookup candidates.

    ``require_truth=True`` reproduces the paper's *training* filtering: drop
    mentions whose ground truth the lookup fails to propose.  Evaluation sets
    keep every mention.
    """
    instances: List[LinkingInstance] = []
    for table in corpus:
        for row, col, cell in table.all_entity_cells():
            if not cell.is_linked:
                continue
            results = lookup.lookup(cell.mention, k=max_candidates)
            candidates = [r.entity_id for r in results]
            scores = [r.score for r in results]
            instance = LinkingInstance(table, row, col, cell.mention,
                                       cell.entity_id, candidates, scores)
            if require_truth and not instance.truth_in_candidates:
                continue
            instances.append(instance)
    if max_instances is not None and len(instances) > max_instances:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(instances), size=max_instances, replace=False)
        instances = [instances[int(i)] for i in sorted(chosen)]
    return instances


def evaluate_linking(predictions: Sequence[Optional[str]],
                     instances: Sequence[LinkingInstance]) -> PrecisionRecallF1:
    """Paper scoring: FP = wrong link; no-prediction only hurts recall."""
    tp = fp = 0
    for predicted, instance in zip(predictions, instances):
        if predicted is None:
            continue
        if predicted == instance.true_id:
            tp += 1
        else:
            fp += 1
    fn = len(instances) - tp
    return PrecisionRecallF1.from_counts(tp, fp, fn)


def oracle_metrics(instances: Sequence[LinkingInstance]) -> PrecisionRecallF1:
    """Lookup (Oracle): correct whenever the truth is among candidates."""
    predictions = [instance.true_id if instance.truth_in_candidates else
                   (instance.candidates[0] if instance.candidates else None)
                   for instance in instances]
    return evaluate_linking(predictions, instances)


class EntityLinkingTask(TrainableTask):
    """Entity disambiguation as an engine task (one item = one table group).

    Only trainable mentions — truth among the candidates and more than one
    candidate — are kept, matching the paper's training filter.
    """

    name = "task/entity_linking"

    def __init__(self, linker: "TURLEntityLinker",
                 instances: Sequence[LinkingInstance]):
        self.module = linker
        self.linker = linker
        self.instances = list(instances)

    def build_batches(self) -> List[List[LinkingInstance]]:
        eligible = [instance for instance in self.instances
                    if instance.truth_in_candidates
                    and len(instance.candidates) > 1]
        by_table = group_by_table(eligible)
        return [by_table[table_id] for table_id in sorted(by_table)]

    def item_size(self, group: List[LinkingInstance]) -> int:
        return len(group)

    def loss(self, group: List[LinkingInstance],
             rng: np.random.Generator) -> Optional[Tensor]:
        linker = self.linker
        entity_hidden, coordinates = linker._cell_hidden(group[0].table)
        position_of = {coord: i for i, coord in enumerate(coordinates)}
        total = None
        for instance in group:
            position = position_of.get((instance.row, instance.col))
            if position is None:
                continue
            logits = linker._score_cell(entity_hidden[position],
                                        instance.candidates,
                                        instance.candidate_scores).reshape(1, -1)
            target = np.asarray([instance.candidates.index(instance.true_id)])
            loss = cross_entropy_logits(logits, target)
            total = loss if total is None else total + loss
        if total is None:
            return None
        return total * (1.0 / len(group))


class TURLEntityLinker(Module):
    """TURL fine-tuned for entity disambiguation.

    Candidate representation (Eqn. 8):
    ``e_kb = [MEAN(name words); MEAN(description words); MEAN(type embeddings)]``
    with name/description words embedded by the shared word-embedding table
    and a type-embedding table learned during fine-tuning.  The matching
    score projects the cell representation to the 3d candidate space.
    """

    def __init__(self, model: TURLModel, linearizer: Linearizer, kb: KnowledgeBase,
                 type_names: Sequence[str], seed: int = 0,
                 use_description: bool = True, use_types: bool = True,
                 use_entity_embedding: bool = True,
                 max_description_tokens: int = 16, max_name_tokens: int = 6):
        super().__init__()
        self.model = model
        self.linearizer = linearizer
        self.kb = kb
        self.use_description = use_description
        self.use_types = use_types
        # The paper omits pre-trained entity embeddings here because its
        # target KB (DBpedia) is disjoint from the corpus entity vocabulary.
        # Our synthetic KB *is* the corpus vocabulary, so the MER head can
        # contribute its co-occurrence knowledge as an extra coherence term
        # (documented adaptation — see DESIGN.md).
        self.use_entity_embedding = use_entity_embedding
        self.type_index = {name: i for i, name in enumerate(type_names)}
        rng = np.random.default_rng(seed)
        dim = model.config.dim
        self.type_embedding = Embedding(max(1, len(type_names)), dim, rng)
        self.match = Linear(dim, 3 * dim, rng)
        # The paper's full-scale model learns sub-word string matching inside
        # the encoder; at our compact scale we supply the candidate
        # generator's string score as an extra logit with a learned weight
        # (documented substitution — see DESIGN.md).
        self.string_weight = Parameter(np.array([4.0]))
        self.coherence_weight = Parameter(np.array([1.0]))
        self._logit_scale = 1.0 / np.sqrt(3 * dim)
        self._mer_scale = 1.0 / np.sqrt(dim)
        self._token_cache: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.max_description_tokens = max_description_tokens
        self.max_name_tokens = max_name_tokens

    # -- candidate representations -------------------------------------------
    def _entity_tokens(self, entity_id: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        cached = self._token_cache.get(entity_id)
        if cached is not None:
            return cached
        entity = self.kb.get(entity_id)
        tokenizer = self.linearizer.tokenizer
        name_ids = np.asarray(
            tokenizer.encode(entity.name, max_length=self.max_name_tokens) or [PAD_ID],
            dtype=np.int64)
        description_ids = np.asarray(
            tokenizer.encode(entity.description,
                             max_length=self.max_description_tokens) or [PAD_ID],
            dtype=np.int64)
        type_ids = np.asarray(
            [self.type_index[t] for t in entity.all_types() if t in self.type_index]
            or [0], dtype=np.int64)
        self._token_cache[entity_id] = (name_ids, description_ids, type_ids)
        return self._token_cache[entity_id]

    def candidate_representation(self, entity_id: str) -> Tensor:
        """(3d,) candidate vector per Eqn. 8, honoring the ablation flags."""
        name_ids, description_ids, type_ids = self._entity_tokens(entity_id)
        word = self.model.embedding.word
        dim = self.model.config.dim
        name_part = word(name_ids).mean(axis=0)
        if self.use_description:
            description_part = word(description_ids).mean(axis=0)
        else:
            description_part = Tensor(np.zeros(dim))
        if self.use_types:
            type_part = self.type_embedding(type_ids).mean(axis=0)
        else:
            type_part = Tensor(np.zeros(dim))
        return concat([name_part, description_part, type_part], axis=-1)

    # -- encoding ------------------------------------------------------------
    def _cell_hidden(self, table: Table) -> Tuple[Tensor, List[Tuple[int, int]]]:
        """Encode ``table`` with all entity embeddings masked; return entity
        hidden states and the (row, col) of each entity position."""
        instance, batch = encode_table(self.linearizer, table)
        # Downstream condition: entity ids unknown -> masked; mentions kept.
        masked_ids = batch["entity_ids"].copy()
        masked_ids[batch["entity_mask"]] = MASK_ID
        batch["entity_ids"] = masked_ids
        _, entity_hidden = self.model.encode(batch)
        coordinates = list(zip(instance.entity_row.tolist(),
                               instance.entity_col.tolist()))
        return entity_hidden[0], coordinates

    def _score_cell(self, cell_hidden: Tensor, candidates: List[str],
                    string_scores: Optional[Sequence[float]] = None) -> Tensor:
        projected = self.match(cell_hidden)  # (3d,)
        candidate_matrix = stack(
            [self.candidate_representation(c) for c in candidates], axis=0)
        logits = (candidate_matrix @ projected.reshape(-1, 1)).reshape(-1) * self._logit_scale
        if string_scores is not None and len(string_scores) == len(candidates):
            logits = logits + self.string_weight * Tensor(
                np.asarray(string_scores, dtype=np.float64))
        if self.use_entity_embedding:
            vocab_ids = np.asarray(
                [self.linearizer.entity_vocab.id_of(c) for c in candidates],
                dtype=np.int64)
            # Deliberately frozen: the pre-trained co-occurrence knowledge is
            # consumed as a feature, not re-trained (re-training it memorizes
            # the fine-tuning mentions and destroys generalization).  detach()
            # severs the tape on purpose; the gather itself stays a tensor op.
            vectors = self.model.embedding.entity.weight.detach().take_rows(vocab_ids)
            mer = (vectors @ self.model.mer_project(cell_hidden).reshape(-1, 1))
            logits = logits + self.coherence_weight * (mer.reshape(-1) * self._mer_scale)
        return logits

    # -- fine-tuning -----------------------------------------------------------
    def training_task(self, instances: Sequence[LinkingInstance]) -> EntityLinkingTask:
        """This head's fine-tuning objective for :class:`repro.train.Trainer`."""
        return EntityLinkingTask(self, instances)

    def finetune(self, instances: Sequence[LinkingInstance], epochs: int = 3,
                 lr: float = 1e-3, seed: int = 0,
                 max_instances: Optional[int] = None,
                 journal: Optional[RunJournal] = None) -> List[float]:
        """Cross-entropy over candidates; all parameters are trained.

        Shorthand for ``Trainer(self.training_task(instances),
        TrainSpec(...), journal=journal).fit()``; returns per-epoch losses.
        ``max_instances`` subsamples whole tables.  For the paper recipe
        (linear decay, clipping) build the :class:`TrainSpec` directly.
        """
        spec = TrainSpec(epochs=epochs, learning_rate=lr, seed=seed,
                         max_items=max_instances)
        stats = Trainer(self.training_task(instances), spec,
                        journal=journal).fit()
        return stats.epoch_losses

    # -- inference -----------------------------------------------------------
    def predict(self, instances: Sequence[LinkingInstance],
                batch_size: Optional[int] = None) -> List[Optional[str]]:
        """Disambiguate every mention; ``batch_size`` bounds how many table
        groups are encoded per chunk (predictions are identical for any
        value — each table is scored independently)."""
        by_table = group_by_table(enumerate(instances),
                                  table_of=lambda pair: pair[1].table)
        groups = list(by_table.values())
        chunk = batch_size if batch_size and batch_size > 0 else len(groups) or 1
        results: Dict[int, Optional[str]] = {}
        with trace("task/entity_linking/predict"), eval_mode(self), no_grad():
            for start in range(0, len(groups), chunk):
                for group in groups[start:start + chunk]:
                    entity_hidden, coordinates = self._cell_hidden(group[0][1].table)
                    position_of = {coord: i for i, coord in enumerate(coordinates)}
                    for original_index, instance in group:
                        if not instance.candidates:
                            results[original_index] = None
                            continue
                        position = position_of.get((instance.row, instance.col))
                        if position is None:
                            results[original_index] = instance.candidates[0]
                            continue
                        scores = self._score_cell(entity_hidden[position],
                                                  instance.candidates,
                                                  instance.candidate_scores).data.reshape(-1)
                        results[original_index] = instance.candidates[int(scores.argmax())]
        return [results[i] for i in range(len(instances))]

    def evaluate(self, instances: Sequence[LinkingInstance]) -> PrecisionRecallF1:
        return evaluate_linking(self.predict(instances), instances)
