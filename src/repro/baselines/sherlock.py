"""Sherlock-style column type prediction (Hulsebos et al., KDD 2019).

Sherlock describes a column by 1 588 hand-engineered features over its cell
values (character distributions, statistical properties, word embeddings,
paragraph vectors) and classifies with a feed-forward network.  We implement
a compact variant with the same feature families — character distribution,
value statistics, and aggregated word embeddings from our Word2Vec substrate
— feeding an MLP with per-type sigmoid outputs (the paper adapts Sherlock to
multi-label the same way, Section 6.3).

Crucially, Sherlock sees *only the cell text* — no table context — which is
exactly why it trails TURL on fine-grained types (paper Table 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.nn import Adam, Linear, Module, Sequential, Tensor, binary_cross_entropy_logits, no_grad
from repro.retrieval.word2vec import Word2Vec, Word2VecConfig
from repro.tasks.column_type import ColumnInstance, ColumnTypeDataset
from repro.tasks.metrics import PrecisionRecallF1, multilabel_micro_prf
from repro.text.tokenizer import basic_tokenize

_CHARSET = "abcdefghijklmnopqrstuvwxyz0123456789 .,-"


def _char_distribution(values: List[str]) -> np.ndarray:
    counts = np.zeros(len(_CHARSET))
    total = 0
    for value in values:
        for char in value.lower():
            index = _CHARSET.find(char)
            if index >= 0:
                counts[index] += 1
                total += 1
    return counts / total if total else counts


def _value_statistics(values: List[str]) -> np.ndarray:
    lengths = np.array([len(v) for v in values], dtype=float)
    word_counts = np.array([len(v.split()) for v in values], dtype=float)
    digit_fraction = np.array(
        [sum(c.isdigit() for c in v) / len(v) if v else 0.0 for v in values])
    capitalized = np.array([1.0 if v[:1].isupper() else 0.0 for v in values])
    numeric = np.array([1.0 if v.replace(".", "").isdigit() else 0.0 for v in values])
    distinct_ratio = len(set(values)) / len(values) if values else 0.0
    return np.array([
        lengths.mean(), lengths.std(), lengths.max() if len(lengths) else 0.0,
        word_counts.mean(), word_counts.std(),
        digit_fraction.mean(), capitalized.mean(), numeric.mean(),
        distinct_ratio,
    ])


def column_features(values: List[str], word2vec: Optional[Word2Vec] = None) -> np.ndarray:
    """Sherlock feature vector for a column's cell strings."""
    values = [v for v in values if v]
    if not values:
        dim = len(_CHARSET) + 9 + (word2vec.config.dim if word2vec else 0)
        return np.zeros(dim)
    parts = [_char_distribution(values), _value_statistics(values)]
    if word2vec is not None:
        vectors = []
        for value in values:
            for token in basic_tokenize(value):
                vector = word2vec.vector(token)
                if vector is not None:
                    vectors.append(vector)
        embedding = (np.mean(vectors, axis=0) if vectors
                     else np.zeros(word2vec.config.dim))
        parts.append(embedding)
    return np.concatenate(parts)


class _GeluLayer(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class SherlockModel:
    """Feature MLP with per-type sigmoid outputs."""

    def __init__(self, n_types: int, embedding_dim: int = 32, hidden_dim: int = 64,
                 seed: int = 0):
        self.n_types = n_types
        self.embedding_dim = embedding_dim
        rng = np.random.default_rng(seed)
        feature_dim = len(_CHARSET) + 9 + embedding_dim
        self.network = Sequential(
            Linear(feature_dim, hidden_dim, rng),
            _GeluLayer(),
            Linear(hidden_dim, n_types, rng),
        )
        self.word2vec: Optional[Word2Vec] = None
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None

    # -- features ---------------------------------------------------------
    def _cell_values(self, instance: ColumnInstance) -> List[str]:
        return [cell.mention for cell in instance.table.columns[instance.col].cells]

    def _features(self, instances: Sequence[ColumnInstance]) -> np.ndarray:
        matrix = np.stack([
            column_features(self._cell_values(instance), self.word2vec)
            for instance in instances
        ])
        if self._mean is not None:
            matrix = (matrix - self._mean) / self._std
        return matrix

    # -- training ---------------------------------------------------------
    def fit(self, dataset: ColumnTypeDataset, epochs: int = 30,
            learning_rate: float = 3e-3, batch_size: int = 64, seed: int = 0,
            validation_patience: Optional[int] = None) -> List[float]:
        """Train with BCE; early-stops on validation F1 when patience given."""
        rng = np.random.default_rng(seed)
        sentences = [basic_tokenize(" ".join(self._cell_values(i)))
                     for i in dataset.train]
        sentences = [s for s in sentences if len(s) >= 2]
        self.word2vec = Word2Vec(Word2VecConfig(dim=self.embedding_dim, epochs=2,
                                                seed=seed)).train(sentences)

        raw = np.stack([
            column_features(self._cell_values(instance), self.word2vec)
            for instance in dataset.train
        ])
        self._mean = raw.mean(axis=0)
        self._std = raw.std(axis=0) + 1e-6
        features = (raw - self._mean) / self._std
        labels = np.stack([dataset.label_vector(i) for i in dataset.train])

        optimizer = Adam(self.network.parameters(), learning_rate=learning_rate)
        losses = []
        best_f1, patience_left = -1.0, validation_patience
        for _ in range(epochs):
            order = rng.permutation(len(features))
            epoch_losses = []
            for start in range(0, len(order), batch_size):
                rows = order[start:start + batch_size]
                logits = self.network(Tensor(features[rows]))
                loss = binary_cross_entropy_logits(logits, labels[rows])
                self.network.zero_grad()
                loss.backward()  # lint: disable=TRN001(RNG stream sets Table 5)
                optimizer.step()  # lint: disable=TRN001(RNG stream sets Table 5)
                epoch_losses.append(loss.item())
            losses.append(float(np.mean(epoch_losses)))
            if validation_patience is not None and dataset.validation:
                f1 = self.evaluate(dataset.validation, dataset).f1
                if f1 > best_f1:
                    best_f1, patience_left = f1, validation_patience
                else:
                    patience_left -= 1
                    if patience_left <= 0:
                        break
        return losses

    # -- inference ---------------------------------------------------------
    def predict(self, instances: Sequence[ColumnInstance],
                dataset: ColumnTypeDataset, threshold: float = 0.5) -> List[Set[str]]:
        features = self._features(instances)
        with no_grad():
            logits = self.network(Tensor(features)).data
        probabilities = 1.0 / (1.0 + np.exp(-logits))
        predictions = []
        for row in probabilities:
            predicted = {dataset.type_names[j] for j in np.where(row >= threshold)[0]}
            if not predicted:
                predicted = {dataset.type_names[int(row.argmax())]}
            predictions.append(predicted)
        return predictions

    def evaluate(self, instances: Sequence[ColumnInstance],
                 dataset: ColumnTypeDataset) -> PrecisionRecallF1:
        predictions = self.predict(instances, dataset)
        return multilabel_micro_prf(predictions, [i.types for i in instances])

    def per_type_f1(self, instances: Sequence[ColumnInstance],
                    dataset: ColumnTypeDataset,
                    type_names: Sequence[str]) -> Dict[str, float]:
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
