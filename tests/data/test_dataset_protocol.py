"""The unified ``repro.data.Dataset`` protocol."""

import pytest

from repro.data.dataset import (
    SPLIT_NAMES,
    Dataset,
    DatasetMetadata,
    strategy_counter,
)
from repro.tasks.column_type import build_column_type_dataset
from repro.tasks.relation_extraction import build_relation_dataset


def test_table_corpus_and_splits_are_datasets(corpus, splits):
    for dataset in (corpus, splits):
        assert isinstance(dataset, Dataset)
        meta = dataset.metadata
        assert isinstance(meta, DatasetMetadata)
        assert meta.n_records == len(dataset)
        assert set(meta.split_sizes) <= set(SPLIT_NAMES)
    assert len(list(splits)) == len(splits)
    assert len(splits.instances("train")) == len(splits.train)


def test_task_datasets_are_datasets(context):
    column = build_column_type_dataset(
        context.kb, context.splits.train, context.splits.validation,
        context.splits.test, min_type_instances=5)
    relation = build_relation_dataset(
        context.kb, context.splits.train, context.splits.validation,
        context.splits.test)
    for dataset, key in ((column, "n_types"), (relation, "n_relations")):
        assert isinstance(dataset, Dataset)
        assert len(dataset) == sum(dataset.metadata.split_sizes.values())
        assert len(list(dataset)) == len(dataset)
        assert dataset.metadata.extra[key] > 0
        with pytest.raises(KeyError):
            dataset.instances("dev")


def test_strategy_counter_tags_and_untagged(corpus):
    counts = strategy_counter(corpus.tables)
    assert sum(counts.values()) == len(corpus.tables)
    assert all(count > 0 for count in counts.values())
