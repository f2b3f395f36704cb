"""Streaming pre-training: bit-parity with the eager path, mid-epoch resume.

These tests pin the two guarantees that make the sharded corpus pipeline
safe to adopt:

* ``pretrain_streaming`` over a :class:`ShardedDataset` produces the same
  losses and weights as the historical in-memory path over the same split
  (``shuffle="flat"`` — the default).
* A ``shuffle="shard"`` run interrupted mid-epoch resumes from a checkpoint
  bit-identically, and refuses a checkpoint taken against a different
  corpus.
"""

import hashlib

import numpy as np
import pytest

from repro.config import TURLConfig
from repro.core.candidates import CandidateBuilder
from repro.core.context import pretrain_streaming
from repro.core.linearize import Linearizer
from repro.core.model import TURLModel
from repro.core.pretrain import Pretrainer
from repro.core.stream import TableInstanceStream
from repro.data.corpus import TableCorpus
from repro.data.shards import ShardedDataset, write_sharded_corpus
from repro.data.synthesis import SynthesisConfig
from repro.kb.generator import WorldConfig, generate_world
from repro.obs import RunJournal, read_journal
from repro.text.tokenizer import WordPieceTokenizer
from repro.text.vocab import EntityVocabulary
from repro.train import Trainer

CONFIG = TURLConfig(num_layers=1, dim=32, intermediate_dim=64, num_heads=2,
                    batch_size=4)
VOCAB_SIZE = 600


@pytest.fixture(scope="module")
def stream_dataset(tmp_path_factory):
    kb = generate_world(WorldConfig(seed=21))
    directory = str(tmp_path_factory.mktemp("stream") / "corpus")
    return write_sharded_corpus(kb, SynthesisConfig(seed=13, n_tables=60),
                                directory, n_shards=3)


def _weight_digest(model) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for name, parameter in sorted(model.named_parameters()):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(parameter.data).tobytes())
    return digest.hexdigest()


def _vocabularies(dataset):
    tokenizer = WordPieceTokenizer.train(dataset.metadata_texts("train"),
                                         vocab_size=VOCAB_SIZE)
    entity_vocab = EntityVocabulary.build_from_counts(
        dataset.entity_counts("train"), min_frequency=2)
    return tokenizer, entity_vocab


def _streaming_trainer(dataset, epochs: int, shuffle: str = "shard"):
    """A fresh, deterministic Trainer over the dataset's train stream."""
    tokenizer, entity_vocab = _vocabularies(dataset)
    model = TURLModel(len(tokenizer.vocab), len(entity_vocab), CONFIG, seed=0)
    linearizer = Linearizer(tokenizer, entity_vocab, CONFIG)
    stream = TableInstanceStream(dataset, linearizer, split="train")
    pretrainer = Pretrainer(model, stream,
                            CandidateBuilder(dataset.instances("train"),
                                             entity_vocab, CONFIG),
                            CONFIG, seed=0, shuffle=shuffle)
    return Trainer(pretrainer, pretrainer._spec(epochs), rng=pretrainer.rng)


def test_streaming_matches_eager_bit_for_bit(stream_dataset):
    streamed_model, _, _, streamed = pretrain_streaming(
        stream_dataset, model_config=CONFIG, pretrain_epochs=1,
        vocab_size=VOCAB_SIZE, seed=0)

    # The historical eager path over the same split, same seeds.
    train = TableCorpus(stream_dataset.instances("train"))
    tokenizer, entity_vocab = _vocabularies(stream_dataset)
    model = TURLModel(len(tokenizer.vocab), len(entity_vocab), CONFIG, seed=0)
    linearizer = Linearizer(tokenizer, entity_vocab, CONFIG)
    instances = [linearizer.encode(table) for table in train]
    eager = Pretrainer(model, instances,
                       CandidateBuilder(train, entity_vocab, CONFIG),
                       CONFIG, seed=0).train(n_epochs=1)

    assert streamed.steps == eager.steps > 0
    np.testing.assert_array_equal(streamed.losses, eager.losses)
    assert _weight_digest(streamed_model) == _weight_digest(model)


def test_streaming_journal_ends_with_probe(stream_dataset, tmp_path):
    """A journaled streaming run closes with the recovery probe, as the
    eager ``build_context`` path does; the probe leaves the weights alone."""
    path = str(tmp_path / "run.jsonl")
    journal = RunJournal(path)
    model, _, _, stats = pretrain_streaming(
        stream_dataset, model_config=CONFIG, pretrain_epochs=1,
        vocab_size=VOCAB_SIZE, seed=0, journal=journal)
    journal.close()
    events = [event["event"] for event in read_journal(path)]
    assert events == ["header"] + ["step"] * stats.steps + ["probe"]
    assert stats.final_accuracy is not None

    unjournaled, _, _, _ = pretrain_streaming(
        stream_dataset, model_config=CONFIG, pretrain_epochs=1,
        vocab_size=VOCAB_SIZE, seed=0)
    assert _weight_digest(model) == _weight_digest(unjournaled)


def test_shard_shuffle_mid_epoch_resume_is_exact(stream_dataset, tmp_path):
    epochs = 2
    baseline = _streaming_trainer(stream_dataset, epochs)
    full = baseline.fit()
    pause_at = len(full.losses) // 3
    assert pause_at >= 1

    interrupted = _streaming_trainer(stream_dataset, epochs)
    first = interrupted.fit(max_steps=pause_at)
    assert len(first.losses) == pause_at
    assert interrupted.chunks_consumed > 0  # genuinely mid-epoch
    interrupted.save(str(tmp_path / "ckpt"))

    resumed = Trainer.restore(str(tmp_path / "ckpt"),
                              _streaming_trainer(stream_dataset, epochs).task)
    rest = resumed.fit()

    np.testing.assert_array_equal(first.losses + rest.losses, full.losses)
    assert (_weight_digest(resumed.task.module)
            == _weight_digest(baseline.task.module))


def test_restore_rejects_a_different_corpus(stream_dataset, tmp_path):
    import shutil

    from repro.data.shards import INDEX_FILE, INDEX_DTYPE, INDEX_HEADER

    trainer = _streaming_trainer(stream_dataset, 1)
    trainer.fit(max_steps=1)
    trainer.save(str(tmp_path / "ckpt"))

    # Same payloads (so vocabularies and weight shapes agree), different
    # index content — the stream position no longer describes this corpus.
    clone = str(tmp_path / "clone")
    shutil.copytree(stream_dataset.directory, clone)
    with open(f"{clone}/{INDEX_FILE}", "r+b") as handle:
        position = INDEX_HEADER.itemsize + INDEX_DTYPE.fields["bucket"][1]
        handle.seek(position)
        flipped = handle.read(1)[0] ^ 0x01
        handle.seek(position)
        handle.write(bytes([flipped]))
    with pytest.raises(ValueError, match="different corpus"):
        Trainer.restore(str(tmp_path / "ckpt"),
                        _streaming_trainer(ShardedDataset(clone), 1).task)


def test_stream_fingerprint_is_stable_across_reopens(stream_dataset):
    first = _streaming_trainer(stream_dataset, 1).task.stream_fingerprint()
    reopened = _streaming_trainer(ShardedDataset(stream_dataset.directory),
                                  1).task.stream_fingerprint()
    assert first is not None
    assert first == reopened
