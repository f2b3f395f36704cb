"""Table2Vec row population baseline (Deng, Zhang & Balog, SIGIR 2019).

Table2Vec trains fixed entity embeddings on serialized tables (our skip-gram
substrate over per-table entity sequences) and ranks row-population
candidates by average cosine similarity to the seed entities.  With zero
seeds the method is not applicable — the paper reports "-" in that cell of
Table 8 — which :meth:`Table2VecRowPopulator.rank` mirrors by returning the
candidates unranked.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.data.corpus import TableCorpus
from repro.retrieval.word2vec import Word2Vec, Word2VecConfig
from repro.tasks.metrics import TaskMetrics, mean_average_precision
from repro.tasks.row_population import PopulationCandidateGenerator, PopulationInstance


def train_entity_embeddings(corpus: TableCorpus, dim: int = 32, epochs: int = 2,
                            seed: int = 0) -> Word2Vec:
    """Skip-gram entity embeddings over per-table entity sequences."""
    sentences = []
    for table in corpus:
        entities = table.linked_entities()
        if len(entities) >= 2:
            sentences.append(entities)
    return Word2Vec(Word2VecConfig(dim=dim, epochs=epochs, seed=seed,
                                   window=8)).train(sentences)


class Table2VecRowPopulator:
    """Fixed-embedding similarity ranking for row population."""

    def __init__(self, embeddings: Word2Vec):
        self.embeddings = embeddings

    @property
    def requires_seeds(self) -> bool:
        return True

    def rank(self, instance: PopulationInstance,
             candidates: Sequence[str]) -> List[str]:
        if not instance.seed_entities:
            # Not applicable without seeds (paper Table 8 reports "-").
            return list(candidates)
        seed_vectors = [self.embeddings.vector(e) for e in instance.seed_entities]
        seed_vectors = [v for v in seed_vectors if v is not None]
        if not seed_vectors:
            return list(candidates)
        seeds = np.stack(seed_vectors)
        seed_norms = np.linalg.norm(seeds, axis=1)
        scored = []
        for candidate in candidates:
            vector = self.embeddings.vector(candidate)
            if vector is None:
                scored.append((0.0, candidate))
                continue
            norm = np.linalg.norm(vector)
            if not norm:
                scored.append((0.0, candidate))
                continue
            sims = seeds @ vector / (seed_norms * norm + 1e-12)
            scored.append((float(sims.mean()), candidate))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        return [candidate for _, candidate in scored]

    def evaluate(self, instances: Sequence[PopulationInstance],
                 generator: PopulationCandidateGenerator
                 ) -> Optional[TaskMetrics]:
        """MAP, or None when no instance has seeds (not applicable —
        the paper reports "-" in that Table 8 cell)."""
        if not any(instance.seed_entities for instance in instances):
            return None
        rankings, truths = [], []
        for instance in instances:
            candidates = generator.candidates_for(instance)
            rankings.append(self.rank(instance, candidates))
            truths.append(instance.target_entities)
        return TaskMetrics(
            task="row_population",
            values={"map": mean_average_precision(rankings, truths)},
            primary="map")
