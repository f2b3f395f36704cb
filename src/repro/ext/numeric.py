"""Numerical attributes (paper future work #1).

TURL's input drops text-column cell values entirely; numeric columns (years,
counts) contribute only their headers.  This extension adds the machinery to
model them:

- :func:`parse_numeric` — robust numeric parsing of cell strings;
- :class:`NumericBinner` — quantile binning fitted on a corpus, turning a
  continuous value into a discrete class usable by a softmax head;
- :func:`build_numeric_instances` — extract (table, row, column, value)
  prediction instances from numeric text columns;
- :class:`TURLValuePredictor` — a fine-tuned head that recovers a masked
  numeric cell's bin from the row's contextualized entity representations
  (Masked Value Recovery, the numeric analogue of MER).

The design follows the paper's own recipe: reuse the pre-trained encoder,
attach a small task head, fine-tune briefly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batching import collate
from repro.core.linearize import Linearizer
from repro.core.model import TURLModel
from repro.data.corpus import TableCorpus
from repro.data.table import Table
from repro.nn import Adam, Linear, Module, Tensor, cross_entropy_logits, eval_mode, no_grad

_NUMERIC_RE = re.compile(r"-?\d+(?:[.,]\d+)?")


def parse_numeric(text: str) -> Optional[float]:
    """Extract the first numeric value from a cell string, or None.

    Handles thousands separators and decimal commas ("1,234" -> 1234.0,
    "3,5" -> 3.5 heuristically by digit count).
    """
    if not text:
        return None
    match = _NUMERIC_RE.search(text.replace(" ", ""))
    if match is None:
        return None
    raw = match.group(0)
    if "," in raw:
        integer, _, fraction = raw.partition(",")
        if len(fraction) == 3 and "." not in raw:
            raw = integer + fraction  # thousands separator
        else:
            raw = integer + "." + fraction
    try:
        return float(raw)
    except ValueError:
        return None


def is_numeric_column(values: Sequence[str], threshold: float = 0.8) -> bool:
    """True when at least ``threshold`` of non-empty cells parse as numbers."""
    parsed = [parse_numeric(v) for v in values if v]
    if not parsed:
        return False
    return sum(1 for p in parsed if p is not None) / len(parsed) >= threshold


class NumericBinner:
    """Quantile binning of continuous values into ``n_bins`` classes."""

    def __init__(self, n_bins: int = 8):
        if n_bins < 2:
            raise ValueError("need at least two bins")
        self.n_bins = n_bins
        self.edges: Optional[np.ndarray] = None

    def fit(self, values: Sequence[float]) -> "NumericBinner":
        values = np.asarray([v for v in values if v is not None], dtype=float)
        if values.size < self.n_bins:
            raise ValueError(
                f"need at least {self.n_bins} values to fit, got {values.size}")
        quantiles = np.linspace(0, 1, self.n_bins + 1)[1:-1]
        self.edges = np.unique(np.quantile(values, quantiles))
        return self

    @property
    def n_classes(self) -> int:
        if self.edges is None:
            raise RuntimeError("binner is not fitted")
        return len(self.edges) + 1

    def transform(self, value: float) -> int:
        if self.edges is None:
            raise RuntimeError("binner is not fitted")
        return int(np.searchsorted(self.edges, value, side="right"))

    def bin_range(self, bin_id: int) -> Tuple[float, float]:
        """(low, high) bounds of a bin (±inf at the extremes)."""
        lows = np.concatenate([[-np.inf], self.edges])
        highs = np.concatenate([self.edges, [np.inf]])
        return float(lows[bin_id]), float(highs[bin_id])


@dataclass
class NumericInstance:
    """One masked-value-recovery query."""

    table: Table
    col: int
    row: int
    value: float


def build_numeric_instances(corpus: TableCorpus,
                            max_per_table: int = 4) -> List[NumericInstance]:
    """Extract numeric cells from text columns (e.g. Year) across a corpus."""
    instances = []
    for table in corpus:
        taken = 0
        for col, column in enumerate(table.columns):
            if column.is_entity:
                continue
            values = [cell for cell in column.cells]
            if not is_numeric_column(values):
                continue
            for row, cell in enumerate(values):
                parsed = parse_numeric(cell)
                if parsed is None or taken >= max_per_table:
                    continue
                instances.append(NumericInstance(table, col, row, parsed))
                taken += 1
    return instances


class TURLValuePredictor(Module):
    """Masked Value Recovery: predict a numeric cell's bin from context.

    The row's entity representations (the subject entity and its row
    neighbors) are pooled and classified over the binner's classes — e.g.
    "which era is this film from", answerable from the director/actors.
    """

    def __init__(self, model: TURLModel, linearizer: Linearizer,
                 binner: NumericBinner, seed: int = 0):
        super().__init__()
        self.model = model
        self.linearizer = linearizer
        self.binner = binner
        rng = np.random.default_rng(seed)
        self.classifier = Linear(model.config.dim, binner.n_classes, rng)

    def _row_hidden(self, instance: NumericInstance) -> Tensor:
        encoded = self.linearizer.encode(instance.table)
        batch = collate([encoded])
        _, entity_hidden = self.model.encode(batch)
        row_positions = np.where(encoded.entity_row == instance.row)[0]
        if len(row_positions) == 0:  # fall back to the whole table
            row_positions = np.arange(encoded.n_entities)
        return entity_hidden[0][row_positions].mean(axis=0)

    def logits(self, instance: NumericInstance) -> Tensor:
        return self.classifier(self._row_hidden(instance))

    def finetune(self, instances: Sequence[NumericInstance], epochs: int = 2,
                 lr: float = 1e-3, seed: int = 0,
                 max_instances: Optional[int] = None) -> List[float]:
        """Hand-rolled loop, one Adam step per instance; returns per-epoch
        losses."""
        rng = np.random.default_rng(seed)
        optimizer = Adam(self.parameters(), learning_rate=lr)
        instances = list(instances)
        if max_instances is not None and len(instances) > max_instances:
            chosen = rng.choice(len(instances), size=max_instances, replace=False)
            instances = [instances[int(i)] for i in chosen]
        self.model.train()
        epoch_losses = []
        for _ in range(epochs):
            order = rng.permutation(len(instances))
            losses = []
            for index in order:
                instance = instances[int(index)]
                target = np.asarray([self.binner.transform(instance.value)])
                loss = cross_entropy_logits(self.logits(instance).reshape(1, -1),
                                            target)
                self.zero_grad()
                loss.backward()
                optimizer.step()
                losses.append(loss.item())
            epoch_losses.append(float(np.mean(losses)) if losses else 0.0)
        return epoch_losses

    def predict_bin(self, instance: NumericInstance) -> int:
        with eval_mode(self.model), no_grad():
            return int(self.logits(instance).data.argmax())

    def accuracy(self, instances: Sequence[NumericInstance]) -> float:
        if not instances:
            return 0.0
        hits = sum(1 for instance in instances
                   if self.predict_bin(instance) == self.binner.transform(instance.value))
        return hits / len(instances)

    def within_one_bin(self, instances: Sequence[NumericInstance]) -> float:
        """Accuracy allowing off-by-one bins (ordinal tolerance)."""
        if not instances:
            return 0.0
        hits = 0
        with eval_mode(self.model), no_grad():
            for instance in instances:
                predicted = int(self.logits(instance).data.argmax())
                truth = self.binner.transform(instance.value)
                hits += abs(predicted - truth) <= 1
        return hits / len(instances)
