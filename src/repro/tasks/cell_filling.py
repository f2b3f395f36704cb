"""Cell filling (paper Section 6.6, Table 9).

Given a subject entity and an object-column header, predict the object
entity.  All methods share the candidate-finding module from [36]: entities
that appear in the same row as the subject anywhere in the pre-training
corpus, filtered by header relatedness ``P(h'|h) > 0`` (Eqn. 14, estimated
from header co-occurrence statistics).

TURL needs **no fine-tuning** here: the query is exactly the MER
pre-training task — a one-row partial table with the object cell masked —
and the pre-trained MER head ranks the candidates (Eqn. 6).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.batching import encode_table
from repro.core.linearize import Linearizer
from repro.core.model import TURLModel
from repro.data.corpus import TableCorpus
from repro.data.table import Column, EntityCell, Table
from repro.nn import eval_mode, no_grad
from repro.obs import get_registry, trace
from repro.tasks.metrics import TaskMetrics, precision_at_k
from repro.tasks.schema_augmentation import normalize_header
from repro.text.vocab import MASK_ID


@dataclass
class FillingInstance:
    """One (subject entity, object header) -> object entity query."""

    table: Table
    subject_id: str
    subject_mention: str
    object_header: str
    true_object: str


def build_filling_instances(corpus: TableCorpus, min_pairs: int = 3
                            ) -> List[FillingInstance]:
    """Queries from held-out subject–object column pairs (Section 6.6)."""
    instances = []
    for table in corpus:
        subject_col = table.subject_column
        subjects = table.columns[subject_col].cells
        for col in table.entity_columns():
            if col == subject_col:
                continue
            column = table.columns[col]
            pairs = [
                (s, o) for s, o in zip(subjects, column.cells)
                if s.is_linked and o.is_linked
            ]
            if len(pairs) < min_pairs:
                continue
            for subject_cell, object_cell in pairs:
                instances.append(FillingInstance(
                    table, subject_cell.entity_id, subject_cell.mention,
                    column.header, object_cell.entity_id))
    return instances


class HeaderStatistics:
    """Header relatedness ``P(h'|h)`` from corpus co-occurrence (Eqn. 14).

    ``n(h', h)`` counts table pairs that contain the same object entity for
    the same subject entity under headers ``h'`` and ``h``.
    """

    def __init__(self, corpus: TableCorpus):
        # (anchor, value) -> headers under which the value appeared in the
        # same row as the anchor (matches the broadened candidate finding).
        pair_headers: Dict[Tuple[str, str], Set[str]] = defaultdict(set)
        for table in corpus:
            entity_cols = table.entity_columns()
            headers = {col: normalize_header(table.columns[col].header)
                       for col in entity_cols}
            for row in range(table.n_rows):
                linked = [(col, table.columns[col].cells[row])
                          for col in entity_cols
                          if table.columns[col].cells[row].is_linked]
                for col_a, cell_a in linked:
                    for col_b, cell_b in linked:
                        if col_a == col_b:
                            continue
                        pair_headers[(cell_a.entity_id, cell_b.entity_id)].add(
                            headers[col_b])

        self.n: Counter = Counter()
        for headers in pair_headers.values():
            headers = sorted(headers)
            for i, h1 in enumerate(headers):
                for h2 in headers[i:]:
                    self.n[(h1, h2)] += 1
                    if h1 != h2:
                        self.n[(h2, h1)] += 1

        self._totals: Counter = Counter()
        for (h1, h2), count in self.n.items():
            self._totals[h2] += count

    def probability(self, source_header: str, target_header: str) -> float:
        """``P(h'|h) = n(h', h) / sum_h'' n(h'', h)``."""
        source = normalize_header(source_header)
        target = normalize_header(target_header)
        total = self._totals.get(target, 0)
        if not total:
            return 0.0
        return self.n.get((source, target), 0) / total


class CellFillingCandidates:
    """Row-co-occurrence candidate finding with header filtering."""

    def __init__(self, corpus: TableCorpus, statistics: HeaderStatistics):
        self.statistics = statistics
        # entity -> list of (same-row entity, source header of that entity).
        # The paper's candidate finding uses *all* entities appearing in the
        # same row as the query subject anywhere in the corpus.
        self.row_neighbors: Dict[str, List[Tuple[str, str]]] = defaultdict(list)
        for table in corpus:
            entity_cols = table.entity_columns()
            headers = {col: normalize_header(table.columns[col].header)
                       for col in entity_cols}
            for row in range(table.n_rows):
                cells = [(col, table.columns[col].cells[row])
                         for col in entity_cols]
                linked = [(col, cell) for col, cell in cells if cell.is_linked]
                for col_a, cell_a in linked:
                    for col_b, cell_b in linked:
                        if col_a == col_b:
                            continue
                        self.row_neighbors[cell_a.entity_id].append(
                            (cell_b.entity_id, headers[col_b]))

    def candidates_for(self, subject_id: str, object_header: str,
                       filter_related: bool = True
                       ) -> List[Tuple[str, List[str]]]:
        """Candidates as ``(entity, source headers)``; optionally filtered to
        ``P(h'|h) > 0`` (the paper's recall/size trade-off)."""
        grouped: Dict[str, Set[str]] = defaultdict(set)
        for object_id, header in self.row_neighbors.get(subject_id, ()):
            grouped[object_id].add(header)
        results = []
        for object_id, headers in grouped.items():
            if filter_related:
                headers = {h for h in headers
                           if self.statistics.probability(h, object_header) > 0}
                if not headers:
                    continue
            results.append((object_id, sorted(headers)))
        return sorted(results)

    def recall(self, instances: Sequence[FillingInstance],
               filter_related: bool = True) -> Tuple[float, float]:
        """(recall, mean candidate count) of candidate finding."""
        hits, sizes = [], []
        for instance in instances:
            candidates = self.candidates_for(instance.subject_id,
                                             instance.object_header,
                                             filter_related)
            ids = {c for c, _ in candidates}
            hits.append(1.0 if instance.true_object in ids else 0.0)
            sizes.append(len(ids))
        return (float(np.mean(hits)) if hits else 0.0,
                float(np.mean(sizes)) if sizes else 0.0)


class TURLCellFiller:
    """Zero-shot cell filling via the pre-trained MER head."""

    def __init__(self, model: TURLModel, linearizer: Linearizer):
        self.model = model
        self.linearizer = linearizer

    def _query_table(self, instance: FillingInstance) -> Table:
        source = instance.table
        return Table(
            table_id=f"{source.table_id}_fill",
            page_title=source.page_title,
            section_title=source.section_title,
            caption=source.caption,
            topic_entity=source.topic_entity,
            subject_column=0,
            columns=[
                Column(source.columns[source.subject_column].header, "entity",
                       [EntityCell(instance.subject_id, instance.subject_mention)]),
                Column(instance.object_header, "entity",
                       [EntityCell(None, "")]),
            ],
        )

    def rank(self, instance: FillingInstance,
             candidates: Sequence[str]) -> List[str]:
        """Rank candidate object entities for the masked cell."""
        if not candidates:
            return []
        encoded, batch = encode_table(self.linearizer,
                                      self._query_table(instance))
        # The object cell is the last entity position; mask it fully.
        object_position = encoded.n_entities - 1
        batch["entity_ids"][0, object_position] = MASK_ID
        mention_masked = np.zeros(batch["entity_ids"].shape, dtype=bool)
        mention_masked[0, object_position] = True
        batch["mention_masked"] = mention_masked

        vocab_ids = np.asarray(
            [self.linearizer.entity_vocab.id_of(c) for c in candidates],
            dtype=np.int64)
        get_registry().counter("task.cell_filling.rankings").inc()
        with trace("task/cell_filling/rank"), eval_mode(self.model), no_grad():
            _, entity_hidden = self.model.encode(batch)
            logits = self.model.mer_logits(entity_hidden, vocab_ids).data
        scores = logits[0, object_position]
        order = np.argsort(-scores)
        return [candidates[int(i)] for i in order]

    def evaluate(self, instances: Sequence[FillingInstance],
                 candidate_finder: CellFillingCandidates,
                 ks: Sequence[int] = (1, 3, 5, 10)) -> TaskMetrics:
        """P@K over instances whose truth survives candidate finding."""
        per_k: Dict[int, List[float]] = {k: [] for k in ks}
        for instance in instances:
            candidates = [c for c, _ in candidate_finder.candidates_for(
                instance.subject_id, instance.object_header)]
            if instance.true_object not in candidates:
                continue
            ranked = self.rank(instance, candidates)
            for k in ks:
                per_k[k].append(precision_at_k(ranked, {instance.true_object}, k))
        values = {f"p@{k}": float(np.mean(v)) if v else 0.0
                  for k, v in per_k.items()}
        return TaskMetrics(task="cell_filling", values=values,
                           primary=f"p@{min(ks)}" if ks else "")
