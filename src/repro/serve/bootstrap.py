"""Assemble a six-task :class:`Predictor` from pipeline artifacts.

The adapters only wrap already-built heads; something still has to build
the heads and their task resources (label inventories, candidate
generators, header vocabularies) from a model + corpus.  That recipe —
shared by ``repro.cli serve``, the serving smoke test and the bench case —
lives here, mirroring the per-task construction of
``repro.cli._build_finetune_task``.

``finetune_epochs > 0`` runs each trainable head's ``finetune`` for that
many epochs before serving (the smoke path: a tiny checkpoint plus one
epoch per task); ``0`` serves the heads exactly as initialized from the
pre-trained weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.linearize import Linearizer
from repro.core.model import TURLModel
from repro.data.corpus import CorpusSplits
from repro.kb.knowledge_base import KnowledgeBase
from repro.obs import RunJournal
from repro.serve.adapters import (
    CellFillingAdapter,
    ColumnTypeAdapter,
    EntityLinkingAdapter,
    RelationExtractionAdapter,
    RowPopulationAdapter,
    SchemaAugmentationAdapter,
    TaskAdapter,
)
from repro.serve.cache import ENCODE_CACHE_SIZE
from repro.serve.predictor import Predictor


@dataclass
class ServingBundle:
    """A ready predictor plus example instances for every served task."""

    predictor: Predictor
    #: A few held-out task instances per task name — smoke-test payload
    #: material (encode with ``adapter.encode_instance``).
    examples: Dict[str, List[Any]] = field(default_factory=dict)


def build_serving_bundle(model: TURLModel, linearizer: Linearizer,
                         kb: KnowledgeBase, splits: CorpusSplits,
                         seed: int = 1,
                         finetune_epochs: int = 0,
                         finetune_max_instances: Optional[int] = None,
                         enable_cache: bool = True,
                         cache_size: int = ENCODE_CACHE_SIZE,
                         n_examples: int = 4,
                         journal: Optional[RunJournal] = None) -> ServingBundle:
    """Build heads + resources for all six TUBE tasks and wrap them."""
    from repro.kb.lookup import LookupService
    from repro.kb.schema import all_types
    from repro.tasks.cell_filling import (CellFillingCandidates,
                                          HeaderStatistics, TURLCellFiller,
                                          build_filling_instances)
    from repro.tasks.column_type import (TURLColumnTypeAnnotator,
                                         build_column_type_dataset)
    from repro.tasks.entity_linking import (TURLEntityLinker,
                                            build_linking_dataset)
    from repro.tasks.relation_extraction import (TURLRelationExtractor,
                                                 build_relation_dataset)
    from repro.tasks.row_population import (PopulationCandidateGenerator,
                                            TURLRowPopulator,
                                            build_population_instances)
    from repro.tasks.schema_augmentation import (TURLSchemaAugmenter,
                                                 build_header_vocabulary,
                                                 build_schema_instances)

    adapters: List[TaskAdapter] = []
    examples: Dict[str, List[Any]] = {}

    lookup = LookupService(kb)
    linker = TURLEntityLinker(model, linearizer, kb, all_types(), seed=seed)
    if finetune_epochs > 0:
        train = build_linking_dataset(splits.train, lookup, require_truth=True)
        linker.finetune(train, epochs=finetune_epochs,
                        max_instances=finetune_max_instances, journal=journal)
    adapters.append(EntityLinkingAdapter(linker))
    examples["entity_linking"] = build_linking_dataset(
        splits.test, lookup, max_instances=n_examples)[:n_examples]

    type_dataset = build_column_type_dataset(kb, splits.train,
                                             splits.validation, splits.test,
                                             min_type_instances=5)
    annotator = TURLColumnTypeAnnotator(model, linearizer,
                                        len(type_dataset.type_names), seed=seed)
    if finetune_epochs > 0:
        annotator.finetune(type_dataset, epochs=finetune_epochs,
                           max_instances=finetune_max_instances,
                           journal=journal)
    adapters.append(ColumnTypeAdapter(annotator, type_dataset))
    examples["column_type"] = type_dataset.test[:n_examples]

    relation_dataset = build_relation_dataset(kb, splits.train,
                                              splits.validation, splits.test,
                                              min_relation_instances=5)
    extractor = TURLRelationExtractor(model, linearizer,
                                      len(relation_dataset.relation_names),
                                      seed=seed)
    if finetune_epochs > 0:
        extractor.finetune(relation_dataset, epochs=finetune_epochs,
                           max_instances=finetune_max_instances,
                           journal=journal)
    adapters.append(RelationExtractionAdapter(extractor, relation_dataset))
    examples["relation_extraction"] = relation_dataset.test[:n_examples]

    generator = PopulationCandidateGenerator(splits.train)
    populator = TURLRowPopulator(model, linearizer, seed=seed)
    if finetune_epochs > 0:
        train = build_population_instances(splits.train, n_seed=1,
                                           min_subject_entities=3)
        populator.finetune(train, generator, epochs=finetune_epochs,
                           max_instances=finetune_max_instances,
                           journal=journal)
    adapters.append(RowPopulationAdapter(populator, generator))
    examples["row_population"] = build_population_instances(
        splits.test, n_seed=1, min_subject_entities=3)[:n_examples]

    statistics = HeaderStatistics(splits.train)
    candidate_finder = CellFillingCandidates(splits.train, statistics)
    filler = TURLCellFiller(model, linearizer)  # zero-shot: no finetune
    adapters.append(CellFillingAdapter(filler, candidate_finder))
    examples["cell_filling"] = build_filling_instances(splits.test)[:n_examples]

    vocabulary = build_header_vocabulary(splits.train, min_tables=2)
    augmenter = TURLSchemaAugmenter(model, linearizer, vocabulary, seed=seed)
    if finetune_epochs > 0:
        train = build_schema_instances(splits.train, vocabulary, n_seed=1)
        augmenter.finetune(train, epochs=finetune_epochs,
                           max_instances=finetune_max_instances,
                           journal=journal)
    adapters.append(SchemaAugmentationAdapter(augmenter))
    examples["schema_augmentation"] = build_schema_instances(
        splits.test, vocabulary, n_seed=1)[:n_examples]

    predictor = Predictor(adapters, enable_cache=enable_cache,
                          cache_size=cache_size, journal=journal)
    return ServingBundle(predictor=predictor, examples=examples)

