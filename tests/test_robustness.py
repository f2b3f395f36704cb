"""Failure-injection and robustness tests across loaders and pipelines."""

import json
import os

import numpy as np
import pytest

from repro.core.pretrain import load_checkpoint, save_checkpoint
from repro.data.corpus import TableCorpus
from repro.data.table import Column, EntityCell, Table
from repro.kb.knowledge_base import Entity, KnowledgeBase


def test_corpus_loader_skips_blank_lines(tmp_path):
    table = Table("t1", "P", "S", "c", None, [
        Column("A", "entity", [EntityCell("e", "m")])])
    path = str(tmp_path / "corpus.jsonl")
    with open(path, "w") as handle:
        handle.write("\n")
        handle.write(table.to_json() + "\n")
        handle.write("   \n")
    corpus = TableCorpus.load_jsonl(path)
    assert len(corpus) == 1


def test_corpus_loader_rejects_garbage(tmp_path):
    path = str(tmp_path / "corpus.jsonl")
    with open(path, "w") as handle:
        handle.write("{not json}\n")
    with pytest.raises(json.JSONDecodeError):
        TableCorpus.load_jsonl(path)


def test_kb_loader_rejects_unknown_relation(tmp_path):
    payload = {
        "entities": [
            {"entity_id": "a", "name": "A", "types": ["person"],
             "aliases": [], "description": ""},
            {"entity_id": "b", "name": "B", "types": ["citytown"],
             "aliases": [], "description": ""},
        ],
        "facts": [["a", "made.up.relation", "b"]],
    }
    path = str(tmp_path / "kb.json")
    with open(path, "w") as handle:
        json.dump(payload, handle)
    with pytest.raises(KeyError):
        KnowledgeBase.load(path)


def test_checkpoint_shape_mismatch_rejected(tmp_path, context):
    directory = str(tmp_path / "ckpt")
    save_checkpoint(directory, context.model, context.tokenizer,
                    context.entity_vocab)
    # Corrupt one weight's shape in the archive.
    from repro.nn.serialization import load_state_dict, save_state_dict

    state = load_state_dict(os.path.join(directory, "model.npz"))
    key = next(iter(state))
    state[key] = np.zeros((1, 1))
    save_state_dict(state, os.path.join(directory, "model.npz"))
    with pytest.raises(ValueError):
        load_checkpoint(directory)


def test_checkpoint_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(str(tmp_path / "nope"))


def test_empty_table_rejected_by_encoder(context):
    """A table with no columns has nothing to linearize; the model should
    still not crash when the caption alone is present."""
    table = Table("empty", "Some Page", "Section", "caption text", None, [
        Column("Only", "entity", [EntityCell("x", "mention")])])
    instance = context.linearizer.encode(table)
    from repro.core.batching import collate

    batch = collate([instance])
    token_hidden, entity_hidden = context.model.encode(batch)
    assert np.isfinite(token_hidden.data).all()
    assert np.isfinite(entity_hidden.data).all()


def test_table_with_all_unlinked_cells(context):
    table = Table("unlinked", "Page", "S", "c", None, [
        Column("A", "entity", [EntityCell(None, f"m{i}") for i in range(4)]),
        Column("B", "entity", [EntityCell(None, f"x{i}") for i in range(4)]),
    ])
    instance = context.linearizer.encode(table)
    assert (instance.entity_ids == 0).all()  # all PAD
    from repro.core.batching import collate

    _, entity_hidden = context.model.encode(collate([instance]))
    assert np.isfinite(entity_hidden.data).all()


def test_lookup_with_adversarial_mentions(context):
    from repro.kb.lookup import LookupService

    service = LookupService(context.kb)
    for mention in ["", " ", "....", "a", "🤖", "x" * 500]:
        results = service.lookup(mention)
        assert isinstance(results, list)


def test_tokenizer_adversarial_inputs(context):
    for text in ["", " \t\n", "🤖🤖", "a" * 1000, "[MASK]", "\\x00"]:
        ids = context.tokenizer.encode(text)
        assert isinstance(ids, list)
        assert all(0 <= i < len(context.tokenizer.vocab) for i in ids)


def test_masking_with_no_eligible_entities(context, rng):
    """A batch whose entities are all PAD must not crash masking."""
    from repro.core.batching import collate
    from repro.core.masking import MaskingPolicy

    table = Table("nolink", "Page title words here", "S", "caption", None, [
        Column("A", "entity", [EntityCell(None, f"m{i}") for i in range(3)])])
    batch = collate([context.linearizer.encode(table)])
    policy = MaskingPolicy(context.config, len(context.tokenizer.vocab),
                           len(context.entity_vocab))
    masked = policy.apply(batch, rng)
    assert masked.n_mer == 0
    assert masked.n_mlm >= 0


def test_pretrainer_step_handles_empty_mer(context, rng):
    """A step where MER selects nothing must still optimize MLM."""
    import dataclasses

    from repro.core.batching import collate
    from repro.core.pretrain import Pretrainer

    config = dataclasses.replace(context.config, mer_probability=0.0)
    model = context.fresh_model(seed=6)
    pretrainer = Pretrainer(model, [], context.candidate_builder, config)
    instances = context.instances_for(context.splits.train)[:4]
    result = pretrainer.step(collate(instances))
    assert result["mer"] == 0.0
    assert result["loss"] > 0.0
