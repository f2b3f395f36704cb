"""The unified ``Dataset`` protocol over in-memory and sharded corpora.

Every corpus-shaped object in the repo — the legacy in-memory
:class:`~repro.data.corpus.TableCorpus`, the partitioned
:class:`~repro.data.corpus.CorpusSplits`, the memory-mapped
:class:`~repro.data.shards.ShardedDataset`, and the per-task instance
containers — speaks one small protocol:

``__len__``
    total number of records (tables or task instances)
``__iter__``
    iterate every record, in stable on-disk / construction order
``instances(split)``
    the records of one split (``"train"`` / ``"validation"`` / ``"test"``);
    possibly a lazy view that decodes on iteration
``metadata``
    a :class:`DatasetMetadata` describing provenance, split sizes and the
    per-strategy difficulty mix

Corpus entry points (``build_context``, ``pretrain_streaming``,
``as_corpus_splits``) accept any implementation; lint rule ``API002`` keeps
new ``List[Table]``-typed corpus parameters out of the tree.  Task
``finetune`` facades take the instance lists their ``build_*`` helpers
return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Protocol, Sequence, runtime_checkable

SPLIT_NAMES = ("train", "validation", "test")


@dataclass(frozen=True)
class DatasetMetadata:
    """Provenance and composition of a dataset."""

    #: where the records live: ``"memory"`` or a shard-directory path
    source: str
    #: total record count across splits
    n_records: int
    #: records per split name
    split_sizes: Dict[str, int] = field(default_factory=dict)
    #: records per synthesis strategy tag (difficulty slicing); untagged
    #: records are counted under ``"untagged"``
    strategy_counts: Dict[str, int] = field(default_factory=dict)
    #: format- or source-specific details (shard count, seed, config, ...)
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "n_records": self.n_records,
            "split_sizes": dict(self.split_sizes),
            "strategy_counts": dict(self.strategy_counts),
            "extra": dict(self.extra),
        }


@runtime_checkable
class Dataset(Protocol):
    """Structural protocol every corpus container implements."""

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[Any]: ...

    def instances(self, split: str = "train") -> Sequence[Any]: ...

    @property
    def metadata(self) -> DatasetMetadata: ...


def strategy_counter(records: Any) -> Dict[str, int]:
    """Count records by strategy tag (``"untagged"`` when absent/None)."""
    counts: Dict[str, int] = {}
    for record in records:
        table = getattr(record, "table", record)
        tag = getattr(table, "strategy", None) or "untagged"
        counts[tag] = counts.get(tag, 0) + 1
    return counts
