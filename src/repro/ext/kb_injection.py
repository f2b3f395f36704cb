"""ERNIE-style KB injection into pre-training (paper future work #2).

The related-work section highlights ERNIE [39], which injects KB knowledge
into a pre-trained language model.  This extension does the analogous thing
for TURL: during pre-training, an auxiliary **relation prediction** head is
trained with distant supervision from the KB — for pairs of linked entities
appearing in the same row, predict which KB relation (if any) holds between
them from their contextualized representations.

The relation loss is one more term on :meth:`Pretrainer.compute_loss`, so
:meth:`Pretrainer.train` runs it on the shared :class:`~repro.train.Trainer`
with the journal, sanitizer, tracing and pause/resume checkpoints that come
with it.  The result is a pre-trained encoder whose entity representations
carry explicit relational structure, which transfers to relation extraction
(see ``benchmarks/bench_ext_kb_injection.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.linearize import TableInstance
from repro.core.pretrain import Pretrainer
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.schema import RELATIONS
from repro.nn import Linear, Module, Tensor, concat, cross_entropy_logits, stack
from repro.train import StepOutput

#: class id reserved for "no relation holds" pairs.
NO_RELATION = 0
#: λ, the relation term's weight in the joint loss.
RELATION_WEIGHT = 0.5
#: cap on labelled pairs per batch (half positives, half negatives).
MAX_PAIRS_PER_BATCH = 48


class RelationInjectionHead(Module):
    """Classifies the KB relation between two contextualized entity states."""

    def __init__(self, dim: int, n_relations: int, rng: np.random.Generator):
        super().__init__()
        self.pair_project = Linear(2 * dim, dim, rng)
        self.classifier = Linear(dim, n_relations + 1, rng)  # +1 for NO_RELATION

    def forward(self, left: Tensor, right: Tensor) -> Tensor:
        """(n_pairs, n_relations+1) logits for stacked pair representations."""
        pair = concat([left, right], axis=-1)
        return self.classifier(self.pair_project(pair).gelu())


class KBInjectedModel(Module):
    """The encoder and the relation head, optimized as one module."""

    def __init__(self, model: Module, relation_head: RelationInjectionHead):
        super().__init__()
        self.model = model
        self.relation_head = relation_head


class KBInjectionPretrainer(Pretrainer):
    """Pre-trainer with the auxiliary relation-prediction objective.

    The joint loss becomes ``MLM + MER + λ · relation`` (λ =
    :data:`RELATION_WEIGHT`).  Pair labels are built per batch by distant
    supervision: every same-row linked pair whose entities stand in a KB
    relation is a positive; an equal number of unrelated same-row pairs are
    negatives.  Batches carry the KB id of each entity position as
    ``entity_kb_ids`` (padded with ``None`` at collate time); a batch
    without them trains the base objectives only.
    """

    name = "pretrain/kb_injection"

    def __init__(self, model, instances: Sequence[TableInstance],
                 candidate_builder, kb: KnowledgeBase, **options):
        """``options`` are :class:`Pretrainer`'s keywords (``config``,
        ``seed``, ``journal``, ``sanitize``, ...)."""
        super().__init__(model, instances, candidate_builder, **options)
        self.kb = kb
        self.relation_names = sorted(RELATIONS)
        self._relation_index = {name: i + 1 for i, name in enumerate(self.relation_names)}
        rng = np.random.default_rng(self.seed + 17)
        self.relation_head = RelationInjectionHead(
            model.config.dim, len(self.relation_names), rng)
        self.module = KBInjectedModel(model, self.relation_head)
        #: per-step relation loss (0.0 when a batch had no related pair).
        self.relation_losses: List[float] = []

    def collate_batch(self, instances: List[TableInstance]) -> Dict[str, Any]:
        batch = super().collate_batch(instances)
        kb_ids = np.full(batch["entity_ids"].shape, None, dtype=object)
        for row, instance in enumerate(instances):
            kb_ids[row, :len(instance.entity_kb_ids)] = instance.entity_kb_ids
        batch["entity_kb_ids"] = kb_ids
        return batch

    # -- distant supervision -------------------------------------------------
    def _pair_labels(self, batch: Dict[str, np.ndarray],
                     rng: np.random.Generator) -> List[Tuple[int, int, int, int]]:
        """(batch index, position a, position b, relation class) tuples."""
        positives: List[Tuple[int, int, int, int]] = []
        negatives: List[Tuple[int, int, int, int]] = []
        kb_ids = batch["entity_kb_ids"]
        rows = batch["entity_row"]
        mask = batch["entity_mask"]
        for b in range(rows.shape[0]):
            ids = kb_ids[b]
            for i in range(len(ids)):
                if not mask[b, i] or ids[i] is None or rows[b, i] < 0:
                    continue
                for j in range(len(ids)):
                    if j == i or not mask[b, j] or ids[j] is None:
                        continue
                    if rows[b, i] != rows[b, j]:
                        continue
                    relations = self.kb.relations_between(ids[i], ids[j])
                    if relations:
                        positives.append(
                            (b, i, j, self._relation_index[relations[0]]))
                    else:
                        negatives.append((b, i, j, NO_RELATION))
        if not positives:
            return []
        n = min(len(positives), MAX_PAIRS_PER_BATCH // 2)
        chosen_pos = [positives[int(k)] for k in
                      rng.choice(len(positives), size=n, replace=False)]
        if negatives:
            m = min(len(negatives), n)
            chosen_neg = [negatives[int(k)] for k in
                          rng.choice(len(negatives), size=m, replace=False)]
        else:
            chosen_neg = []
        return chosen_pos + chosen_neg

    # -- joint objective ---------------------------------------------------
    def compute_loss(self, batch: Dict[str, np.ndarray],
                     rng: np.random.Generator) -> StepOutput:
        """MLM + MER (:meth:`Pretrainer.joint_loss`) plus ``λ · relation``."""
        output, entity_hidden = self.joint_loss(batch, rng)
        pairs = (self._pair_labels(batch, rng)
                 if "entity_kb_ids" in batch else [])
        relation = 0.0
        if pairs:
            lefts = stack([entity_hidden[b, i] for b, i, _, _ in pairs], axis=0)
            rights = stack([entity_hidden[b, j] for b, _, j, _ in pairs], axis=0)
            labels = np.asarray([label for _, _, _, label in pairs])
            relation_loss = cross_entropy_logits(
                self.relation_head(lefts, rights), labels)
            relation = relation_loss.item()
            weighted = relation_loss * RELATION_WEIGHT
            output.loss = (weighted if output.loss is None
                           else output.loss + weighted)
        output.extras["relation"] = relation
        self.relation_losses.append(relation)
        return output
