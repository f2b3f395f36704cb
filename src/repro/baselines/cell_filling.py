"""Cell filling value-ranking baselines (paper Section 6.6, Table 9).

All three rank a candidate entity by the similarity between the query header
``h`` and the candidate's *source* headers ``h'`` (Eqn. 15,
``P(e|h) = MAX sim(h', h)``), differing only in ``sim``:

- **Exact** — 1 if the headers match exactly, else 0;
- **H2H** — ``P(h'|h)`` from corpus header co-occurrence (Eqn. 14);
- **H2V** — cosine similarity of header embeddings trained with Word2Vec
  over per-table header sequences (the Table2Vec-style variant).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.corpus import TableCorpus
from repro.retrieval.word2vec import Word2Vec, Word2VecConfig
from repro.tasks.cell_filling import CellFillingCandidates, FillingInstance, HeaderStatistics
from repro.tasks.metrics import TaskMetrics, precision_at_k
from repro.tasks.schema_augmentation import normalize_header


class _HeaderSimilarityRanker:
    """Shared Eqn. 15 machinery: score = max over source headers."""

    def similarity(self, source_header: str, target_header: str) -> float:
        raise NotImplementedError

    def rank(self, instance: FillingInstance,
             candidates: Sequence[Tuple[str, List[str]]]) -> List[str]:
        scored = []
        for entity_id, source_headers in candidates:
            score = max((self.similarity(h, instance.object_header)
                         for h in source_headers), default=0.0)
            scored.append((-score, entity_id))
        scored.sort()
        return [entity_id for _, entity_id in scored]

    def evaluate(self, instances: Sequence[FillingInstance],
                 candidate_finder: CellFillingCandidates,
                 ks: Sequence[int] = (1, 3, 5, 10)) -> TaskMetrics:
        """P@K over instances whose truth survives candidate finding."""
        per_k: Dict[int, List[float]] = {k: [] for k in ks}
        for instance in instances:
            candidates = candidate_finder.candidates_for(
                instance.subject_id, instance.object_header)
            ids = [c for c, _ in candidates]
            if instance.true_object not in ids:
                continue
            ranked = self.rank(instance, candidates)
            for k in ks:
                per_k[k].append(precision_at_k(ranked, {instance.true_object}, k))
        values = {f"p@{k}": float(np.mean(v)) if v else 0.0
                  for k, v in per_k.items()}
        return TaskMetrics(task="cell_filling", values=values,
                           primary=f"p@{min(ks)}" if ks else "")


class ExactRanker(_HeaderSimilarityRanker):
    """sim = exact header match."""

    def similarity(self, source_header: str, target_header: str) -> float:
        return 1.0 if normalize_header(source_header) == normalize_header(target_header) else 0.0


class H2HRanker(_HeaderSimilarityRanker):
    """sim = P(h'|h) from header co-occurrence statistics."""

    def __init__(self, statistics: HeaderStatistics):
        self.statistics = statistics

    def similarity(self, source_header: str, target_header: str) -> float:
        return self.statistics.probability(source_header, target_header)


class H2VRanker(_HeaderSimilarityRanker):
    """sim = cosine of Word2Vec header embeddings."""

    def __init__(self, corpus: TableCorpus, dim: int = 16, epochs: int = 5,
                 seed: int = 0):
        sentences = []
        for table in corpus:
            headers = [normalize_header(h) for h in table.headers if h.strip()]
            if len(headers) >= 2:
                sentences.append(headers)
        self.embeddings = Word2Vec(
            Word2VecConfig(dim=dim, epochs=epochs, seed=seed, window=4)
        ).train(sentences)

    def similarity(self, source_header: str, target_header: str) -> float:
        source = normalize_header(source_header)
        target = normalize_header(target_header)
        if source == target:
            return 1.0
        return self.embeddings.similarity(source, target)
