"""Golden determinism: the shared engine reproduces the pre-refactor loops.

The constants below were captured from the original per-task training loops
(hand-rolled Adam in each task module, and the KB-injection extension's own
epoch loop) immediately before they were replaced by :mod:`repro.train`.  Losses must match to the last bit and fine-tuned
parameters must hash identically — the refactor is required to be a pure
reorganization, not a numerics change.
"""

import hashlib

import numpy as np
import pytest

from repro.ext.kb_injection import KBInjectionPretrainer
from repro.tasks.column_type import (
    ColumnTypeDataset,
    TURLColumnTypeAnnotator,
    build_column_type_dataset,
)
from repro.tasks.schema_augmentation import (
    TURLSchemaAugmenter,
    build_header_vocabulary,
    build_schema_instances,
)

PRETRAIN_FIRST5 = [12.287945215056766, 12.318376650532768, 12.253677335088147,
                   12.142332019817491, 12.284658592979511]
PRETRAIN_LAST = 10.023585705197235
PRETRAIN_STEPS = 68

COLUMN_TYPE_LOSSES = [0.5842772583760966, 0.29567858608241154]
COLUMN_TYPE_HASH = \
    "df054859ec69fbc75598d0751c90e9e6179efe516951b087c9c45a9115c08a11"

SCHEMA_LOSSES = [0.5462767598073717, 0.3493783286500021]
SCHEMA_HASH = \
    "7f5999d456aaadd9560f24e2c2cf6a5f64ac8cf1e8d51480e21b68bdc0f0ecea"

# 40 tables, 3 epochs of 5 steps, captured from the forked
# ``KBInjectionPretrainer.train_with_kb`` loop.
KB_INJECTION_LOSSES = [14.117353443289709, 13.772577913147256,
                       13.760771729960547, 13.497249486838843,
                       13.674478023618386, 13.223554265472213,
                       13.397184673189354, 13.254891160046135,
                       13.147265913572959, 13.328006502960617,
                       13.055701784972726, 13.176537620742092,
                       13.23824619101574, 13.193478113428302,
                       13.002246026125148]
KB_INJECTION_RELATION = [3.2791476581098693, 2.7860341432073534,
                         2.685274513599399, 2.5514932987138312,
                         2.363236360710833, 2.031544365264928,
                         1.9715988247979603, 1.875473813580791,
                         1.9289260930872487, 1.946753628231247,
                         1.8461359114091853, 1.8354185152974385,
                         1.8800194457341117, 1.8141579236193124,
                         1.62459205098926]
KB_INJECTION_HASH = \
    "fa0e1edcf05d29eb0484fde635fe0b058e7dbd386796c1ea4f0fd4f5148480d3"


def _state_hash(module) -> str:
    digest = hashlib.sha256()
    for name, array in sorted(module.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def test_pretraining_matches_pre_refactor_losses(request):
    context = request.getfixturevalue("context")
    stats = context.pretrain_stats
    assert stats.losses[:5] == PRETRAIN_FIRST5
    assert stats.losses[-1] == PRETRAIN_LAST
    assert len(stats.losses) == PRETRAIN_STEPS


def test_column_type_finetune_matches_pre_refactor(request):
    context = request.getfixturevalue("context")
    full = build_column_type_dataset(context.kb, context.splits.train,
                                     context.splits.validation,
                                     context.splits.test,
                                     min_type_instances=5)
    dataset = ColumnTypeDataset(type_names=full.type_names,
                                train=full.train[:40],
                                validation=full.validation, test=full.test)
    annotator = TURLColumnTypeAnnotator(context.clone_model(),
                                        context.linearizer,
                                        len(full.type_names), seed=0)
    losses = annotator.finetune(dataset, epochs=2, lr=1e-3, seed=0)
    assert losses == COLUMN_TYPE_LOSSES
    assert _state_hash(annotator) == COLUMN_TYPE_HASH


def test_schema_augmentation_finetune_matches_pre_refactor(request):
    context = request.getfixturevalue("context")
    vocabulary = build_header_vocabulary(context.splits.train, min_tables=3)
    instances = build_schema_instances(context.splits.train, vocabulary,
                                       n_seed=1)[:30]
    augmenter = TURLSchemaAugmenter(context.clone_model(), context.linearizer,
                                    vocabulary, seed=0)
    losses = augmenter.finetune(instances, epochs=2, lr=1e-3, seed=0)
    assert losses == SCHEMA_LOSSES
    assert _state_hash(augmenter) == SCHEMA_HASH


def test_kb_injection_pretraining_matches_forked_loop(request):
    """The relation term on the shared engine reproduces the old loop."""
    context = request.getfixturevalue("context")
    instances = context.instances_for(context.splits.train)[:40]
    pretrainer = KBInjectionPretrainer(
        context.fresh_model(seed=0), instances, context.candidate_builder,
        context.kb, config=context.config, seed=0)
    stats = pretrainer.train(n_epochs=3)
    assert stats.losses == KB_INJECTION_LOSSES
    assert pretrainer.relation_losses == KB_INJECTION_RELATION
    digest = hashlib.sha256()
    for prefix, module in (("model", pretrainer.model),
                           ("relation_head", pretrainer.relation_head)):
        for name, array in sorted(module.state_dict().items()):
            digest.update(f"{prefix}.{name}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == KB_INJECTION_HASH
