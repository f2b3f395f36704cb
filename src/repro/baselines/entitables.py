"""EntiTables baselines (Zhang & Balog, SIGIR 2017).

Two components the paper compares against:

- :class:`EntiTablesRowPopulator` — a generative probabilistic ranker for
  row population: with no seeds, candidates are scored by *caption
  likelihood* (aggregated retrieval scores of the tables that contain them);
  with seeds, by *entity similarity* (co-occurrence overlap with the seed
  set), the configuration the paper found best per setting (Section 6.5).
- :class:`KNNSchemaAugmenter` — the schema augmentation method of
  Section 6.7: tf-idf + cosine kNN over captions; headers of the top-10
  most similar tables are ranked by aggregated table similarity, re-weighted
  by seed-header overlap when seeds exist.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.data.corpus import TableCorpus
from repro.retrieval.tfidf import TfIdfVectorizer, cosine_similarity
from repro.tasks.row_population import PopulationCandidateGenerator, PopulationInstance
from repro.tasks.metrics import TaskMetrics, mean_average_precision
from repro.tasks.schema_augmentation import SchemaInstance, normalize_header


class EntiTablesRowPopulator:
    """Generative probabilistic row population."""

    def __init__(self, corpus: TableCorpus):
        self.corpus = corpus
        # Entity co-occurrence sets over subject columns.
        self.cooccurrence: Dict[str, Set[str]] = defaultdict(set)
        self._containing_tables: Dict[str, List[str]] = defaultdict(list)
        for table in corpus:
            subjects = table.subject_entities()
            subject_set = set(subjects)
            for entity_id in subjects:
                self.cooccurrence[entity_id] |= subject_set - {entity_id}
                self._containing_tables[entity_id].append(table.table_id)

    def _caption_likelihood_scores(self, instance: PopulationInstance,
                                   generator: PopulationCandidateGenerator,
                                   candidates: Sequence[str]) -> Dict[str, float]:
        """Aggregate BM25 scores of retrieved tables containing a candidate."""
        query = generator.query_for(instance)
        retrieved = dict(generator.index.search(query, k=generator.k_tables))
        scores: Dict[str, float] = Counter()
        for table_id, score in retrieved.items():
            for entity_id in generator._subjects.get(table_id, ()):
                scores[entity_id] += score
        return {c: scores.get(c, 0.0) for c in candidates}

    def _entity_similarity_scores(self, instance: PopulationInstance,
                                  candidates: Sequence[str]) -> Dict[str, float]:
        """Jaccard overlap between candidate and seed co-occurrence sets."""
        seed_set = set(instance.seed_entities)
        scores = {}
        for candidate in candidates:
            neighbors = self.cooccurrence.get(candidate, set())
            direct = len(neighbors & seed_set)
            scores[candidate] = direct / (len(seed_set) or 1)
        return scores

    def rank(self, instance: PopulationInstance,
             generator: PopulationCandidateGenerator,
             candidates: Sequence[str]) -> List[str]:
        if instance.seed_entities:
            scores = self._entity_similarity_scores(instance, candidates)
        else:
            scores = self._caption_likelihood_scores(instance, generator, candidates)
        return sorted(candidates, key=lambda c: (-scores[c], c))

    def evaluate(self, instances: Sequence[PopulationInstance],
                 generator: PopulationCandidateGenerator) -> TaskMetrics:
        """MAP over candidate rankings (paper Table 8 baseline row)."""
        rankings, truths = [], []
        for instance in instances:
            candidates = generator.candidates_for(instance)
            rankings.append(self.rank(instance, generator, candidates))
            truths.append(instance.target_entities)
        return TaskMetrics(
            task="row_population",
            values={"map": mean_average_precision(rankings, truths)},
            primary="map")


class KNNSchemaAugmenter:
    """tf-idf kNN schema augmentation (Section 6.7 baseline)."""

    def __init__(self, corpus: TableCorpus, k: int = 10):
        self.corpus = corpus
        self.k = k
        self.vectorizer = TfIdfVectorizer().fit(t.caption_text() for t in corpus)
        self._matrix = self.vectorizer.transform_many(
            [t.caption_text() for t in corpus])
        self._headers: List[List[str]] = [
            [normalize_header(h) for h in table.headers] for table in corpus]

    def _top_tables(self, caption: str) -> List[Tuple[int, float]]:
        query = self.vectorizer.transform(caption)
        scores = self._matrix @ query
        order = np.argsort(-scores)[: self.k]
        return [(int(i), float(scores[int(i)])) for i in order if scores[int(i)] > 0]

    def rank(self, instance: SchemaInstance,
             header_vocabulary: Sequence[str]) -> List[str]:
        """Rank vocabulary headers by aggregated neighbor-table similarity."""
        seed_set = set(instance.seed_headers)
        vocabulary = set(header_vocabulary)
        scores: Counter = Counter()
        for table_index, similarity in self._top_tables(instance.caption):
            headers = self._headers[table_index]
            weight = similarity
            if seed_set:
                overlap = len(seed_set & set(headers)) / len(seed_set)
                weight *= 0.5 + overlap  # re-weight by schema overlap
            for header in headers:
                if header in vocabulary and header not in seed_set:
                    scores[header] += weight
        ranked = [h for h, _ in scores.most_common()]
        return ranked

    def evaluate(self, instances: Sequence[SchemaInstance],
                 header_vocabulary: Sequence[str]) -> TaskMetrics:
        """MAP over header rankings (paper Table 10 baseline row)."""
        rankings = [self.rank(instance, header_vocabulary)
                    for instance in instances]
        truths = [instance.target_headers for instance in instances]
        return TaskMetrics(
            task="schema_augmentation",
            values={"map": mean_average_precision(rankings, truths)},
            primary="map")

    def best_support_caption(self, instance: SchemaInstance) -> Optional[str]:
        """Caption of the most similar corpus table (paper Table 11)."""
        top = self._top_tables(instance.caption)
        if not top:
            return None
        return self.corpus[top[0][0]].caption_text()
