"""Tests for the ERNIE-style KB-injection pre-training extension."""

import numpy as np
import pytest

from repro.core.batching import collate
from repro.ext.kb_injection import NO_RELATION, KBInjectionPretrainer, RelationInjectionHead
from repro.nn import Tensor
from repro.obs import RunJournal, read_journal
from repro.train import Trainer


@pytest.fixture(scope="module")
def injector(request):
    context = request.getfixturevalue("context")
    instances = context.instances_for(context.splits.train)[:16]
    pretrainer = KBInjectionPretrainer(
        context.fresh_model(seed=2), instances, context.candidate_builder,
        context.kb, config=context.config, seed=0)
    return context, instances, pretrainer


def test_relation_head_shapes(rng):
    head = RelationInjectionHead(dim=16, n_relations=5, rng=rng)
    left = Tensor(np.random.default_rng(0).normal(size=(7, 16)))
    right = Tensor(np.random.default_rng(1).normal(size=(7, 16)))
    logits = head(left, right)
    assert logits.shape == (7, 6)  # +1 for NO_RELATION


def test_pair_labels_distant_supervision(injector, rng):
    context, instances, pretrainer = injector
    batch = pretrainer.collate_batch(instances[:4])
    kb_ids = batch["entity_kb_ids"]
    assert kb_ids.shape == batch["entity_ids"].shape
    pairs = pretrainer._pair_labels(batch, rng)
    assert pairs, "corpus rows should contain related pairs"
    positives = [p for p in pairs if p[3] != NO_RELATION]
    assert positives
    # Verify a positive against the KB.
    b, i, j, label = positives[0]
    relation = pretrainer.relation_names[label - 1]
    assert context.kb.has_fact(kb_ids[b, i], relation, kb_ids[b, j])
    # Negatives are same-row unrelated pairs.
    for b, i, j, label in pairs:
        if label == NO_RELATION:
            assert not context.kb.relations_between(kb_ids[b, i], kb_ids[b, j])


def test_injection_step_adds_relation_loss(injector):
    context, instances, pretrainer = injector
    result = pretrainer.step(pretrainer.collate_batch(instances[:4]))
    assert result["relation"] > 0
    assert result["loss"] > result["mlm"]


def test_injection_step_without_kb_ids_degrades(injector):
    context, instances, pretrainer = injector
    result = pretrainer.step(collate(instances[:4]))
    assert result["relation"] == 0.0
    assert result["loss"] > 0


def _injector(context, n_tables, seed, **kwargs):
    instances = context.instances_for(context.splits.train)[:n_tables]
    return KBInjectionPretrainer(
        context.fresh_model(seed=seed), instances, context.candidate_builder,
        context.kb, config=context.config, seed=0, **kwargs)


def test_train_reduces_loss_with_relation_term(request):
    pretrainer = _injector(request.getfixturevalue("context"), 16, seed=3)
    losses = pretrainer.train(n_epochs=6).losses
    assert np.mean(losses[-3:]) < np.mean(losses[:3])
    assert any(l > 0 for l in pretrainer.relation_losses)


def test_relation_head_parameters_are_optimized(request):
    pretrainer = _injector(request.getfixturevalue("context"), 8, seed=4)
    before = pretrainer.relation_head.classifier.weight.data.copy()
    pretrainer.train(n_epochs=1)
    assert not np.allclose(before, pretrainer.relation_head.classifier.weight.data)


def test_train_journals_relation_term(request, tmp_path):
    context = request.getfixturevalue("context")
    path = str(tmp_path / "kb.jsonl")
    pretrainer = _injector(context, 8, seed=4, journal=RunJournal(path))
    stats = pretrainer.train(n_epochs=1)
    pretrainer.journal.close()
    events = read_journal(path)
    assert events[0]["event"] == "header"
    assert events[0]["task"] == "pretrain/kb_injection"
    steps = [event for event in events if event["event"] == "step"]
    assert [event["loss"] for event in steps] == stats.losses
    assert [event["relation"] for event in steps] == pretrainer.relation_losses


def test_mid_epoch_resume_restores_relation_head(request, tmp_path):
    """Pause/resume checkpoints cover the relation head and its moments."""
    context = request.getfixturevalue("context")

    def trainer():
        pretrainer = _injector(context, 16, seed=5)
        return Trainer(pretrainer, pretrainer._spec(2), rng=pretrainer.rng)

    full = trainer()
    losses = full.fit().losses
    interrupted = trainer()
    first = interrupted.fit(max_steps=3).losses
    interrupted.save(str(tmp_path / "ckpt"))
    resumed = Trainer.restore(str(tmp_path / "ckpt"), trainer().task)
    assert first + resumed.fit().losses == losses
    for name, value in full.task.module.state_dict().items():
        np.testing.assert_array_equal(resumed.task.module.state_dict()[name],
                                      value)
