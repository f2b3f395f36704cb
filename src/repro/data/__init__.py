"""Table data model and corpus construction.

Implements the paper's Section 2 data model (``T = (C, H, E, e_t)``) and
Section 5 corpus pipeline: a synthesizer that emits Wikipedia-style
relational tables from the knowledge base, pre-processing heuristics
(subject-column detection, noisy-column filtering), train/validation/test
partitioning, and the Table 3 statistics report.
"""

from repro.data.table import EntityCell, Column, Table
from repro.data.corpus import TableCorpus, CorpusSplits
from repro.data.dataset import (
    Dataset,
    DatasetMetadata,
    SPLIT_NAMES,
    strategy_counter,
)
from repro.data.synthesis import RECIPE_NAMES, SynthesisConfig, TableSynthesizer, build_corpus
from repro.data.preprocessing import is_relational, filter_relational, partition_corpus
from repro.data.shards import (
    ShardedDataset,
    ShardFormatError,
    ShardIntegrityError,
    write_sharded_corpus,
)
from repro.data.statistics import corpus_statistics, format_statistics

__all__ = [
    "EntityCell",
    "Column",
    "Table",
    "TableCorpus",
    "CorpusSplits",
    "Dataset",
    "DatasetMetadata",
    "SPLIT_NAMES",
    "strategy_counter",
    "RECIPE_NAMES",
    "SynthesisConfig",
    "TableSynthesizer",
    "build_corpus",
    "is_relational",
    "filter_relational",
    "partition_corpus",
    "ShardedDataset",
    "ShardFormatError",
    "ShardIntegrityError",
    "write_sharded_corpus",
    "corpus_statistics",
    "format_statistics",
]
