"""TAPAS-style flat-text table encoder (extra baseline).

Follow-up work on table pre-training (TAPAS, TaBERT) linearizes *all* cell
text into one token sequence with learned row/column id embeddings and full
(unmasked) self-attention — no entity vocabulary, no visibility matrix.
This module implements that design at our scale and trains it from scratch
for column type annotation, providing a second "how much do TURL's entity
embeddings + structure mask buy" comparison alongside Sherlock.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.data.table import Table
from repro.nn import (
    Adam,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Tensor,
    TransformerEncoder,
    binary_cross_entropy_logits,
    eval_mode,
    no_grad,
)
from repro.tasks.column_type import ColumnInstance, ColumnTypeDataset
from repro.tasks.metrics import PrecisionRecallF1, multilabel_micro_prf
from repro.text.tokenizer import WordPieceTokenizer
from repro.text.vocab import PAD_ID


class TapasStyleColumnTyper(Module):
    """Flat-text table encoder with row/column id embeddings."""

    def __init__(self, tokenizer: WordPieceTokenizer, n_types: int,
                 dim: int = 64, num_layers: int = 2, num_heads: int = 4,
                 intermediate_dim: int = 128, max_tokens: int = 96,
                 max_rows: int = 12, max_columns: int = 8,
                 max_cell_tokens: int = 3, seed: int = 0):
        super().__init__()
        self.tokenizer = tokenizer
        self.max_tokens = max_tokens
        self.max_rows = max_rows
        self.max_columns = max_columns
        self.max_cell_tokens = max_cell_tokens
        rng = np.random.default_rng(seed)
        vocab_size = len(tokenizer.vocab)
        self.word = Embedding(vocab_size, dim, rng)
        self.row_embedding = Embedding(max_rows + 2, dim, rng)     # 0 = metadata
        self.column_embedding = Embedding(max_columns + 2, dim, rng)
        self.position = Embedding(max_tokens, dim, rng)
        self.norm = LayerNorm(dim)
        self.encoder = TransformerEncoder(num_layers, dim, num_heads,
                                          intermediate_dim, rng)
        self.classifier = Linear(dim, n_types, rng)

    # -- flattening --------------------------------------------------------
    def _flatten(self, table: Table) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[int, List[int]]]:
        """Token ids + row/col ids + per-column token positions."""
        ids: List[int] = []
        rows: List[int] = []
        cols: List[int] = []
        column_positions: Dict[int, List[int]] = {}

        def push(token_ids: List[int], row: int, col: int) -> List[int]:
            taken = []
            for token in token_ids:
                if len(ids) >= self.max_tokens:
                    break
                taken.append(len(ids))
                ids.append(token)
                rows.append(row)
                cols.append(col)
            return taken

        push(self.tokenizer.encode(table.caption_text(), max_length=16), 0, 0)
        n_cols = min(table.n_columns, self.max_columns)
        for col in range(n_cols):
            positions = push(
                self.tokenizer.encode(table.columns[col].header, max_length=3),
                0, col + 1)
            column_positions.setdefault(col, []).extend(positions)
        n_rows = min(table.n_rows, self.max_rows)
        for row in range(n_rows):
            for col in range(n_cols):
                cell = table.columns[col].cells[row]
                text = cell.mention if table.columns[col].is_entity else str(cell)
                positions = push(
                    self.tokenizer.encode(text, max_length=self.max_cell_tokens),
                    row + 1, col + 1)
                column_positions.setdefault(col, []).extend(positions)
        if not ids:
            ids, rows, cols = [PAD_ID], [0], [0]
        return (np.asarray(ids), np.asarray(rows), np.asarray(cols),
                column_positions)

    def _encode(self, table: Table):
        ids, rows, cols, column_positions = self._flatten(table)
        hidden = (self.word(ids[None, :])
                  + self.row_embedding(rows[None, :])
                  + self.column_embedding(cols[None, :])
                  + self.position(np.arange(len(ids))[None, :]))
        hidden = self.encoder(self.norm(hidden))
        return hidden[0], column_positions

    def column_logits(self, table: Table, cols: Sequence[int]) -> Tensor:
        from repro.nn import stack

        hidden, column_positions = self._encode(table)
        pooled = []
        for col in cols:
            positions = column_positions.get(col, [])
            if positions:
                pooled.append(hidden[np.asarray(positions)].mean(axis=0))
            else:
                pooled.append(hidden.mean(axis=0))
        return self.classifier(stack(pooled, axis=0))

    # -- training / evaluation: mirrors the TURL annotator ------------------
    def fit(self, dataset: ColumnTypeDataset, epochs: int = 3,
            learning_rate: float = 1e-3, max_instances: Optional[int] = None,
            seed: int = 0) -> List[float]:
        rng = np.random.default_rng(seed)
        optimizer = Adam(self.parameters(), learning_rate=learning_rate)
        instances = list(dataset.train)
        if max_instances is not None and len(instances) > max_instances:
            chosen = rng.choice(len(instances), size=max_instances, replace=False)
            instances = [instances[int(i)] for i in chosen]
        by_table: Dict[str, List[ColumnInstance]] = {}
        for instance in instances:
            by_table.setdefault(instance.table.table_id, []).append(instance)
        table_ids = sorted(by_table)

        self.train()
        epoch_losses = []
        for _ in range(epochs):
            order = rng.permutation(len(table_ids))
            losses = []
            for index in order:
                group = by_table[table_ids[int(index)]]
                labels = np.stack([dataset.label_vector(g) for g in group])
                logits = self.column_logits(group[0].table, [g.col for g in group])
                loss = binary_cross_entropy_logits(logits, labels)
                self.zero_grad()
                loss.backward()  # lint: disable=TRN001(RNG stream sets bench_ext_tapas)
                optimizer.step()  # lint: disable=TRN001(RNG stream sets bench_ext_tapas)
                losses.append(loss.item())
            epoch_losses.append(float(np.mean(losses)))
        return epoch_losses

    def predict(self, instances: Sequence[ColumnInstance],
                dataset: ColumnTypeDataset, threshold: float = 0.5) -> List[Set[str]]:
        predictions: List[Set[str]] = []
        with eval_mode(self), no_grad():
            for instance in instances:
                logits = self.column_logits(instance.table, [instance.col]).numpy()[0]
                probabilities = 1.0 / (1.0 + np.exp(-logits))
                predicted = {dataset.type_names[j]
                             for j in np.where(probabilities >= threshold)[0]}
                if not predicted:
                    predicted = {dataset.type_names[int(probabilities.argmax())]}
                predictions.append(predicted)
        return predictions

    def evaluate(self, instances: Sequence[ColumnInstance],
                 dataset: ColumnTypeDataset) -> PrecisionRecallF1:
        predictions = self.predict(instances, dataset)
        return multilabel_micro_prf(predictions, [i.types for i in instances])
