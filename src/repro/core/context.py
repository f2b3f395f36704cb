"""End-to-end pipeline context.

:class:`TURLContext` bundles every artifact the downstream tasks need — the
knowledge base, corpus splits, tokenizer, entity vocabulary, linearizer and
the (optionally pre-trained) model — and :func:`build_context` constructs the
whole pipeline from two config objects, mirroring the paper's Section 5 + 4.4
procedure: synthesize corpus → identify relational tables → partition →
build vocabularies → pre-train.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import List, Optional

from repro.config import TURLConfig
from repro.core.candidates import CandidateBuilder
from repro.core.linearize import Linearizer, TableInstance
from repro.core.model import TURLModel
from repro.core.pretrain import Pretrainer, PretrainStats
from repro.core.stream import TableInstanceStream
from repro.data.corpus import CorpusSplits, TableCorpus
from repro.data.dataset import Dataset
from repro.data.preprocessing import filter_relational, partition_corpus
from repro.data.synthesis import SynthesisConfig, build_corpus
from repro.kb.generator import WorldConfig, generate_world
from repro.kb.knowledge_base import KnowledgeBase
from repro.obs import RunJournal
from repro.text.tokenizer import WordPieceTokenizer
from repro.text.vocab import EntityVocabulary


def as_corpus_splits(corpus: Dataset, seed: int = 0) -> CorpusSplits:
    """Materialize any :class:`~repro.data.dataset.Dataset` as splits.

    ``CorpusSplits`` pass through; an unpartitioned ``TableCorpus`` is
    partitioned with the paper's Section 5.1 procedure; anything else (e.g.
    a :class:`~repro.data.shards.ShardedDataset`) contributes its three
    named splits.
    """
    if isinstance(corpus, CorpusSplits):
        return corpus
    if isinstance(corpus, TableCorpus):
        return partition_corpus(corpus, seed=seed)
    return CorpusSplits(TableCorpus(corpus.instances("train")),
                        TableCorpus(corpus.instances("validation")),
                        TableCorpus(corpus.instances("test")))


#: Validation tables the recovery probe scores after a journaled run.
PROBE_TABLES = 50


def _pretrain_stage(dataset: Dataset, model_config: TURLConfig,
                    pretrain_epochs: int, vocab_size: int,
                    entity_min_frequency: int, seed: int,
                    journal: Optional[RunJournal], sanitize: bool,
                    shuffle: str, stream: bool):
    """Vocabularies → model → linearizer → candidates → pre-training on
    ``dataset``'s train split (linearized per step when ``stream``).

    A journaled run ends with the recovery probe, which runs under
    ``no_grad`` with its own fixed rng and so leaves the weights alone.
    """
    if hasattr(dataset, "metadata_texts"):
        texts = dataset.metadata_texts("train")
        counts = dataset.entity_counts("train")
    else:
        train = TableCorpus(dataset.instances("train"))
        texts = train.metadata_texts()
        counts = train.entity_counts()
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=vocab_size)
    entity_vocab = EntityVocabulary.build_from_counts(
        counts, min_frequency=entity_min_frequency)

    model = TURLModel(len(tokenizer.vocab), len(entity_vocab), model_config,
                      seed=seed)
    linearizer = Linearizer(tokenizer, entity_vocab, model_config)
    candidate_builder = CandidateBuilder(dataset.instances("train"),
                                         entity_vocab, model_config)

    stats = None
    if pretrain_epochs > 0:
        instances = (TableInstanceStream(dataset, linearizer, split="train")
                     if stream else [linearizer.encode(table) for table
                                     in dataset.instances("train")])
        pretrainer = Pretrainer(model, instances, candidate_builder,
                                model_config, seed=seed, journal=journal,
                                sanitize=sanitize, shuffle=shuffle)
        eval_instances = None
        if journal is not None:
            validation = islice(dataset.instances("validation"), PROBE_TABLES)
            eval_instances = [linearizer.encode(table) for table in validation]
        stats = pretrainer.train(n_epochs=pretrain_epochs,
                                 eval_instances=eval_instances,
                                 max_eval_tables=PROBE_TABLES)
    return model, tokenizer, entity_vocab, linearizer, candidate_builder, stats


def pretrain_streaming(dataset: Dataset,
                       model_config: TURLConfig = TURLConfig(),
                       pretrain_epochs: int = 3,
                       vocab_size: int = 4000,
                       entity_min_frequency: int = 2,
                       seed: int = 0,
                       journal: Optional[RunJournal] = None,
                       sanitize: bool = False,
                       shuffle: str = "flat"):
    """Pre-train directly off a dataset without materializing instances.

    The streaming counterpart of :func:`build_context`, sharing its
    pre-training stage: vocabularies are built from the dataset's train
    split, but the epoch loop draws each table through a
    :class:`~repro.core.stream.TableInstanceStream` — decode + linearize
    happen per step, so peak memory stays bounded by one batch regardless of
    corpus size.  With ``shuffle="flat"`` the step sequence is bit-identical
    to the eager in-memory path over the same split; ``shuffle="shard"``
    adds shard-local bucketing for memory-mapped
    :class:`~repro.data.shards.ShardedDataset` corpora.  A ``journal`` gets
    the same closing probe event as :func:`build_context`'s.

    Returns ``(model, tokenizer, entity_vocab, stats)``.
    """
    model, tokenizer, entity_vocab, _, _, stats = _pretrain_stage(
        dataset, model_config, pretrain_epochs, vocab_size,
        entity_min_frequency, seed, journal, sanitize, shuffle, stream=True)
    return model, tokenizer, entity_vocab, stats


@dataclass
class TURLContext:
    """Everything needed to fine-tune / evaluate on downstream tasks."""

    kb: KnowledgeBase
    splits: CorpusSplits
    tokenizer: WordPieceTokenizer
    entity_vocab: EntityVocabulary
    config: TURLConfig
    model: TURLModel
    linearizer: Linearizer
    candidate_builder: CandidateBuilder
    pretrain_stats: Optional[PretrainStats] = None

    def instances_for(self, corpus: TableCorpus) -> List[TableInstance]:
        return [self.linearizer.encode(table) for table in corpus]

    def clone_model(self, seed: int = 0) -> TURLModel:
        """A fresh model with the pre-trained weights copied in — the
        starting point for each fine-tuning run, so tasks never disturb the
        shared pre-trained parameters."""
        clone = TURLModel(self.model.vocab_size, self.model.entity_vocab_size,
                          self.config, seed=seed)
        clone.load_state_dict(self.model.state_dict())
        return clone

    def fresh_model(self, seed: int = 0) -> TURLModel:
        """A randomly initialized model (the "w/o pre-training" ablations)."""
        return TURLModel(self.model.vocab_size, self.model.entity_vocab_size,
                         self.config, seed=seed)


def build_context(world_config: WorldConfig = WorldConfig(),
                  synthesis_config: SynthesisConfig = SynthesisConfig(),
                  model_config: TURLConfig = TURLConfig(),
                  pretrain_epochs: int = 3,
                  vocab_size: int = 4000,
                  entity_min_frequency: int = 2,
                  seed: int = 0,
                  journal: Optional[RunJournal] = None,
                  sanitize: bool = False,
                  shuffle: str = "flat",
                  corpus: Optional[Dataset] = None,
                  kb: Optional[KnowledgeBase] = None) -> TURLContext:
    """Build the full pipeline: world → corpus → vocabularies → pre-training.

    Set ``pretrain_epochs=0`` to skip pre-training (random initialization).
    ``journal`` (a :class:`repro.obs.RunJournal`) records one JSONL event
    per pre-training step and a closing recovery-probe event; it never
    alters the seeded result.
    ``shuffle`` selects the pre-training epoch order: ``"flat"`` (the
    historical bit-identical default), ``"bucket"`` (length-bucketed batches
    with no padding waste) or ``"shard"`` (shard-local bucketing; both
    seeded-equivalent, not bit-equal, to flat).

    ``corpus`` accepts any :class:`~repro.data.dataset.Dataset`
    (``TableCorpus``, ``CorpusSplits`` or a memory-mapped
    :class:`~repro.data.shards.ShardedDataset`) in place of in-process
    synthesis; pass the matching ``kb`` for downstream task heads (a fresh
    world is generated from ``world_config`` otherwise).  A full context
    materializes the splits — for RAM-bounded streaming pre-training of a
    checkpoint use :func:`pretrain_streaming` instead.
    """
    kb = generate_world(world_config) if kb is None else kb
    if corpus is None:
        table_corpus = filter_relational(build_corpus(kb, synthesis_config))
        splits = partition_corpus(table_corpus, seed=seed)
    else:
        splits = as_corpus_splits(corpus, seed=seed)

    model, tokenizer, entity_vocab, linearizer, candidate_builder, stats = \
        _pretrain_stage(splits, model_config, pretrain_epochs, vocab_size,
                        entity_min_frequency, seed, journal, sanitize,
                        shuffle, stream=False)
    return TURLContext(
        kb=kb,
        splits=splits,
        tokenizer=tokenizer,
        entity_vocab=entity_vocab,
        config=model_config,
        model=model,
        linearizer=linearizer,
        candidate_builder=candidate_builder,
        pretrain_stats=stats,
    )
