"""The "BERT-based" relation extraction baseline (paper Section 6.4).

The paper adapts a text relation extractor [39]: the concatenated table
metadata is treated as a sentence and the two column headers as entity
mentions.  A pre-trained English BERT is unavailable offline, so we
substitute a same-capacity *text-only* Transformer trained from scratch —
no table structure, no visibility matrix, no table pre-training.  The
comparison the paper draws (Table 7 and the Figure 6 convergence curve:
TURL starts from a better initialization and converges faster) is exactly
the contrast this baseline preserves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.nn import (
    Adam,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Tensor,
    TransformerEncoder,
    binary_cross_entropy_logits,
    concat,
    eval_mode,
    no_grad,
    stack,
)
from repro.tasks.metrics import PrecisionRecallF1, average_precision, multilabel_micro_prf
from repro.tasks.relation_extraction import RelationDataset, RelationInstance
from repro.text.tokenizer import WordPieceTokenizer
from repro.text.vocab import PAD_ID


class BertStyleRelationExtractor(Module):
    """Text-only Transformer over [caption ; header1 ; header2]."""

    def __init__(self, tokenizer: WordPieceTokenizer, n_relations: int,
                 dim: int = 64, num_layers: int = 2, num_heads: int = 4,
                 intermediate_dim: int = 128, max_caption_tokens: int = 24,
                 max_header_tokens: int = 6, seed: int = 0):
        super().__init__()
        self.tokenizer = tokenizer
        self.max_caption_tokens = max_caption_tokens
        self.max_header_tokens = max_header_tokens
        rng = np.random.default_rng(seed)
        vocab_size = len(tokenizer.vocab)
        self.word = Embedding(vocab_size, dim, rng)
        self.position = Embedding(max_caption_tokens + 2 * max_header_tokens, dim, rng)
        self.segment = Embedding(3, dim, rng)  # caption / header1 / header2
        self.norm = LayerNorm(dim)
        self.encoder = TransformerEncoder(num_layers, dim, num_heads,
                                          intermediate_dim, rng)
        self.classifier = Linear(2 * dim, n_relations, rng)

    def _encode_ids(self, instance: RelationInstance):
        caption = self.tokenizer.encode(instance.table.caption_text(),
                                        max_length=self.max_caption_tokens)
        header1 = self.tokenizer.encode(
            instance.table.columns[instance.subject_col].header,
            max_length=self.max_header_tokens) or [PAD_ID]
        header2 = self.tokenizer.encode(
            instance.table.columns[instance.object_col].header,
            max_length=self.max_header_tokens) or [PAD_ID]
        ids = np.asarray(caption + header1 + header2, dtype=np.int64)
        segments = np.asarray([0] * len(caption) + [1] * len(header1)
                              + [2] * len(header2), dtype=np.int64)
        positions = np.arange(len(ids), dtype=np.int64)
        return ids, segments, positions, len(caption), len(header1)

    def _pair_representation(self, instance: RelationInstance) -> Tensor:
        ids, segments, positions, n_caption, n_header1 = self._encode_ids(instance)
        hidden = self.word(ids[None, :]) + self.segment(segments[None, :]) \
            + self.position(positions[None, :])
        hidden = self.encoder(self.norm(hidden))  # (1, L, d)
        header1 = hidden[0, n_caption:n_caption + n_header1].mean(axis=0)
        header2 = hidden[0, n_caption + n_header1:].mean(axis=0)
        return concat([header1, header2], axis=-1)

    def pair_logits(self, instance: RelationInstance) -> Tensor:
        return self.classifier(self._pair_representation(instance))

    # -- training/inference: mirrors TURLRelationExtractor ------------------
    def finetune(self, dataset: RelationDataset, epochs: int = 3,
                 lr: float = 1e-3, seed: int = 0,
                 max_instances: Optional[int] = None,
                 map_every: Optional[int] = None,
                 map_instances: int = 40) -> Dict[str, List[float]]:
        """Hand-rolled loop kept off the shared Trainer (no table batching
        here): one Adam step per instance.  Returns the same history dict
        as :meth:`TURLRelationExtractor.finetune`.
        """
        rng = np.random.default_rng(seed)
        optimizer = Adam(self.parameters(), learning_rate=lr)
        instances = list(dataset.train)
        if max_instances is not None and len(instances) > max_instances:
            chosen = rng.choice(len(instances), size=max_instances, replace=False)
            instances = [instances[int(i)] for i in chosen]

        history: Dict[str, List[float]] = {"losses": [], "map_steps": [], "map_values": []}
        step = 0
        self.train()
        for _ in range(epochs):
            order = rng.permutation(len(instances))
            for index in order:
                instance = instances[int(index)]
                logits = self.pair_logits(instance).reshape(1, -1)
                labels = dataset.label_vector(instance).reshape(1, -1)
                loss = binary_cross_entropy_logits(logits, labels)
                self.zero_grad()
                loss.backward()
                optimizer.step()
                history["losses"].append(loss.item())
                step += 1
                if map_every and step % map_every == 0:
                    history["map_steps"].append(step)
                    history["map_values"].append(
                        self.validation_map(dataset, max_instances=map_instances))
                    self.train()
        return history

    def predict(self, instances: Sequence[RelationInstance],
                dataset: RelationDataset, threshold: float = 0.5) -> List[Set[str]]:
        predictions = []
        with eval_mode(self), no_grad():
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
        instances = dataset.validation[:max_instances]
        scores = []
        with eval_mode(self), no_grad():
            for instance in instances:
                logits = self.pair_logits(instance).data
                ranked = [dataset.relation_names[j] for j in np.argsort(-logits)]
                scores.append(average_precision(ranked, instance.relations))
        return float(np.mean(scores)) if scores else 0.0
