"""Tests for the TURL model, pre-training loop and checkpointing."""

import numpy as np
import pytest

from repro.config import TURLConfig
from repro.core.batching import collate
from repro.core.candidates import CandidateBuilder
from repro.core.masking import IGNORE, MaskingPolicy
from repro.core.model import TURLModel
from repro.core.pretrain import (
    Pretrainer,
    evaluate_object_prediction,
    load_checkpoint,
    save_checkpoint,
)
from repro.text.vocab import MASK_ID


@pytest.fixture(scope="module")
def pipeline(request, small_config):
    context = request.getfixturevalue("context")
    instances = context.instances_for(context.splits.train)[:24]
    return context, instances


def test_model_encode_shapes(pipeline):
    context, instances = pipeline
    batch = collate(instances[:4])
    token_hidden, entity_hidden = context.model.encode(batch)
    assert token_hidden.shape == batch["token_ids"].shape + (context.config.dim,)
    assert entity_hidden.shape == batch["entity_ids"].shape + (context.config.dim,)


def test_model_mlm_logits_cover_vocab(pipeline):
    context, instances = pipeline
    batch = collate(instances[:2])
    token_hidden, _ = context.model.encode(batch)
    logits = context.model.mlm_logits(token_hidden)
    assert logits.shape[-1] == context.model.vocab_size


def test_model_mer_logits_cover_candidates(pipeline):
    context, instances = pipeline
    batch = collate(instances[:2])
    _, entity_hidden = context.model.encode(batch)
    candidates = np.array([5, 6, 7, 8])
    logits = context.model.mer_logits(entity_hidden, candidates)
    assert logits.shape == entity_hidden.shape[:2] + (4,)


def test_visibility_isolates_invisible_cells(pipeline):
    """With a single encoder layer, changing an entity invisible to a target
    cell must not change the target's representation.  (With stacked layers
    information flows multi-hop through shared neighbors — by design, as in
    the paper — so the strict test needs one layer.)"""
    import dataclasses
    context, instances = pipeline
    instance = next(i for i in instances if i.n_entities >= 7)
    config = dataclasses.replace(context.config, num_layers=1)
    model = TURLModel(context.model.vocab_size, context.model.entity_vocab_size,
                      config, seed=5)
    model.eval()
    batch = collate([instance])
    _, hidden_a = model.encode(batch)

    # Find two cells in different rows AND columns.
    target = other = None
    for i in range(1, instance.n_entities):
        for j in range(1, instance.n_entities):
            if (instance.entity_row[i] != instance.entity_row[j]
                    and instance.entity_col[i] != instance.entity_col[j]):
                target, other = i, j
                break
        if target is not None:
            break
    assert target is not None

    modified = {k: v.copy() for k, v in batch.items()}
    modified["entity_ids"][0, other] = MASK_ID
    _, hidden_b = model.encode(modified)
    np.testing.assert_allclose(hidden_a.data[0, target], hidden_b.data[0, target],
                               atol=1e-10)
    # ...while the perturbed cell itself does change.
    assert not np.allclose(hidden_a.data[0, other], hidden_b.data[0, other])


def test_no_visibility_leaks_everywhere(pipeline):
    """Without the visibility mask the same perturbation reaches every cell."""
    context, instances = pipeline
    instance = next(i for i in instances if i.n_entities >= 7)
    context.model.eval()
    batch = collate([instance])
    _, hidden_a = context.model.encode(batch, use_visibility=False)
    modified = {k: v.copy() for k, v in batch.items()}
    modified["entity_ids"][0, 1] = MASK_ID
    _, hidden_b = context.model.encode(modified, use_visibility=False)
    changed = ~np.isclose(hidden_a.data[0], hidden_b.data[0], atol=1e-12)
    assert changed.any(axis=-1).mean() > 0.9


def test_pretrainer_step_returns_losses(pipeline, rng):
    context, instances = pipeline
    model = context.fresh_model(seed=3)
    pretrainer = Pretrainer(model, instances, context.candidate_builder,
                            context.config, seed=1)
    batch = collate(instances[:4])
    result = pretrainer.step(batch)
    assert result["loss"] > 0
    assert result["mlm"] > 0
    assert result["mer"] > 0


def test_pretraining_reduces_loss(pipeline):
    context, instances = pipeline
    model = context.fresh_model(seed=4)
    pretrainer = Pretrainer(model, instances, context.candidate_builder,
                            context.config, seed=1)
    stats = pretrainer.train(n_epochs=10)
    first = np.mean(stats.losses[:3])
    last = np.mean(stats.losses[-3:])
    assert last < first * 0.95


def test_probe_runs_and_bounded(pipeline):
    context, instances = pipeline
    pretrainer = Pretrainer(context.model, instances, context.candidate_builder,
                            context.config)
    accuracy = pretrainer.evaluate_object_prediction(instances[:6])
    assert 0.0 <= accuracy <= 1.0


def test_probe_needs_only_model_and_candidates(pipeline):
    """The probe is callable without building a Pretrainer."""
    context, instances = pipeline
    pretrainer = Pretrainer(context.model, instances, context.candidate_builder,
                            context.config)
    assert (evaluate_object_prediction(context.model,
                                       context.candidate_builder,
                                       instances[:6])
            == pretrainer.evaluate_object_prediction(instances[:6]))


def test_pretrained_beats_fresh_on_probe(pipeline):
    """Pre-training must actually help the recovery probe."""
    context, instances = pipeline
    fresh = Pretrainer(context.fresh_model(seed=9), instances,
                       context.candidate_builder, context.config)
    trained = Pretrainer(context.model, instances, context.candidate_builder,
                         context.config)
    eval_instances = context.instances_for(context.splits.validation)[:10]
    assert (trained.evaluate_object_prediction(eval_instances)
            >= fresh.evaluate_object_prediction(eval_instances))


def test_checkpoint_roundtrip(pipeline, tmp_path):
    context, instances = pipeline
    directory = str(tmp_path / "ckpt")
    save_checkpoint(directory, context.model, context.tokenizer,
                    context.entity_vocab)
    model, tokenizer, entity_vocab = load_checkpoint(directory)
    assert model.num_parameters() == context.model.num_parameters()
    assert len(entity_vocab) == len(context.entity_vocab)
    batch = collate(instances[:2])
    context.model.eval()
    model.eval()
    a, _ = context.model.encode(batch)
    b, _ = model.encode(batch)
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_clone_model_independent(pipeline):
    context, _ = pipeline
    clone = context.clone_model()
    clone.mlm_project.weight.data[:] = 0.0
    assert not np.allclose(context.model.mlm_project.weight.data, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        TURLConfig(dim=30, num_heads=4).validate()
    with pytest.raises(ValueError):
        TURLConfig(mer_probability=1.5).validate()
