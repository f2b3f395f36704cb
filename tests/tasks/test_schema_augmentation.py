"""Tests for schema augmentation: header vocab, kNN baseline, TURL."""

import numpy as np
import pytest

from repro.baselines.entitables import KNNSchemaAugmenter
from repro.tasks.schema_augmentation import (
    TURLSchemaAugmenter,
    build_header_vocabulary,
    build_schema_instances,
    normalize_header,
)
from repro.train import Trainer, TrainSpec


@pytest.fixture(scope="module")
def schema(request):
    context = request.getfixturevalue("context")
    vocabulary = build_header_vocabulary(context.splits.train, min_tables=2)
    return context, vocabulary


def test_normalize_header():
    assert normalize_header("  Covered   Location ") == "covered location"
    assert normalize_header("CLUB") == "club"


def test_header_vocabulary_min_tables(schema):
    context, vocabulary = schema
    assert vocabulary
    from collections import Counter
    counts = Counter()
    for table in context.splits.train:
        for header in {normalize_header(h) for h in table.headers if h.strip()}:
            counts[header] += 1
    for header in vocabulary:
        assert counts[header] >= 2


def test_schema_instances_targets_in_vocab(schema):
    context, vocabulary = schema
    instances = build_schema_instances(context.splits.test, vocabulary, n_seed=1)
    assert instances
    for instance in instances[:20]:
        assert len(instance.seed_headers) == 1
        assert instance.target_headers <= set(vocabulary)
        assert not (instance.target_headers & set(instance.seed_headers))


def test_knn_rank_excludes_seeds(schema):
    context, vocabulary = schema
    knn = KNNSchemaAugmenter(context.splits.train, k=5)
    instances = build_schema_instances(context.splits.test, vocabulary, n_seed=1)
    instance = instances[0]
    ranked = knn.rank(instance, vocabulary)
    assert not (set(instance.seed_headers) & set(ranked))
    assert set(ranked) <= set(vocabulary)


def test_knn_support_caption(schema):
    context, vocabulary = schema
    knn = KNNSchemaAugmenter(context.splits.train, k=5)
    instances = build_schema_instances(context.splits.test, vocabulary, n_seed=0)
    support = knn.best_support_caption(instances[0])
    assert support is None or isinstance(support, str)


def test_knn_map_reasonable(schema):
    context, vocabulary = schema
    knn = KNNSchemaAugmenter(context.splits.train)
    instances = build_schema_instances(context.splits.test, vocabulary, n_seed=0)
    metrics = knn.evaluate(instances[:15], vocabulary)
    assert metrics.task == "schema_augmentation"
    assert 0.0 <= metrics.values["map"] <= 1.0


def test_turl_augmenter_finetunes_and_ranks(schema):
    context, vocabulary = schema
    train = build_schema_instances(context.splits.train, vocabulary, n_seed=0)
    test = build_schema_instances(context.splits.test, vocabulary, n_seed=0)
    augmenter = TURLSchemaAugmenter(context.clone_model(), context.linearizer,
                                    vocabulary)
    losses = augmenter.finetune(train[:60], epochs=2)
    assert losses[-1] < losses[0]
    ranked = augmenter.rank(test[0])
    assert set(ranked) <= set(vocabulary)
    metrics = augmenter.evaluate(test[:10])
    assert 0.0 <= metrics.primary_value <= 1.0


def test_finetune_is_the_trainer_path(schema):
    """`finetune(...)` is shorthand for the Trainer call README documents."""
    context, vocabulary = schema
    instances = build_schema_instances(context.splits.train, vocabulary,
                                       n_seed=0)[:2]

    def fresh():
        return TURLSchemaAugmenter(context.clone_model(), context.linearizer,
                                   vocabulary)

    losses = fresh().finetune(instances, epochs=1, lr=1e-3, seed=0)
    twin = fresh()
    stats = Trainer(twin.training_task(instances),
                    TrainSpec(epochs=1, learning_rate=1e-3, seed=0)).fit()
    assert losses == stats.epoch_losses


def test_turl_augmenter_header_embeddings_initialized(schema):
    context, vocabulary = schema
    augmenter = TURLSchemaAugmenter(context.clone_model(), context.linearizer,
                                    vocabulary)
    # Initialized from word embeddings: rows should be non-zero for headers
    # whose tokens are in vocabulary.
    norms = np.linalg.norm(augmenter.header_embeddings.data, axis=1)
    assert (norms > 0).mean() > 0.9


def test_turl_augmenter_ap_per_query(schema):
    context, vocabulary = schema
    test = build_schema_instances(context.splits.test, vocabulary, n_seed=1)
    augmenter = TURLSchemaAugmenter(context.clone_model(), context.linearizer,
                                    vocabulary)
    ap = augmenter.average_precision_for(test[0])
    assert 0.0 <= ap <= 1.0
