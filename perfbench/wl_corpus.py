"""``corpus``: write a sharded corpus, then stream it with no model.

A round writes the corpus with ``write_sharded_corpus(workers=nproc)`` and
streams its train split through ``TableInstanceStream.fetch`` and
``collate`` in the ``shard_bucketed_chunk_indices`` order that
``--shuffle shard`` uses.  The data path carries the load, writes beside
reads; no ``repro.nn`` code runs, so a model change should leave it flat.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

import numpy as np

import probes
from common import (WORLD_SEED, fresh_dir, median, metric, nproc,
                    own_peak_rss_mb, percentile, timed_setups)
from spans import Summary, Tracer, breakdown

N_TABLES = 2000
N_SHARDS = 4
#: Tables behind the tokenizer and entity vocabulary.
VOCAB_TABLES = 300
SETUP_REPEATS = 3
#: Batch-time tail percentile, and the rounds that give it at least ten
#: samples beyond it (2 x ~180 batches; a traced run needs one untraced
#: and one traced round).
TAIL = 95.0
MIN_ROUNDS = 2

#: Per-batch rows inside ``data.stream.batch``.
BATCH_ROWS = {
    "data.shards.decode_ms": ("data.shards.decode",),
    "core.linearize.encode_ms": ("core.linearize.encode",),
    "text.tokenizer.encode_ms": ("text.tokenizer.encode",),
    "core.batching.collate_ms": ("core.batching.collate",),
}


class State:
    def __init__(self, seed: int):
        from repro.config import TURLConfig
        from repro.core.linearize import Linearizer
        from repro.data.preprocessing import filter_relational
        from repro.data.synthesis import SynthesisConfig, build_corpus
        from repro.kb.generator import WorldConfig, generate_world
        from repro.text.tokenizer import WordPieceTokenizer
        from repro.text.vocab import EntityVocabulary

        self.seed = seed
        self.kb = generate_world(WorldConfig(seed=WORLD_SEED))
        self.config = SynthesisConfig(seed=seed + 1, n_tables=N_TABLES)
        sample = filter_relational(build_corpus(
            self.kb, SynthesisConfig(seed=seed + 2, n_tables=VOCAB_TABLES)))
        tokenizer = WordPieceTokenizer.train(sample.metadata_texts(),
                                             vocab_size=4000)
        entity_vocab = EntityVocabulary.build_from_counts(
            sample.entity_counts(), min_frequency=2)
        self.batch_size = TURLConfig().batch_size
        self.linearizer = Linearizer(tokenizer, entity_vocab, TURLConfig())


def write(state: State, directory: str, workers: int):
    from repro.data.shards import write_sharded_corpus

    begin = time.perf_counter()
    dataset = write_sharded_corpus(state.kb, state.config, directory,
                                   n_shards=N_SHARDS, workers=workers)
    return dataset, time.perf_counter() - begin


def stream(state: State, dataset, rng: np.random.Generator, batch_span):
    """Stream the train split once; returns (positions, batch seconds,
    stream wall seconds)."""
    from repro.core.batching import shard_bucketed_chunk_indices
    from repro.core.stream import TableInstanceStream

    begin = time.perf_counter()
    instances = TableInstanceStream(dataset, state.linearizer, split="train")
    positions = range(len(instances))
    chunks = shard_bucketed_chunk_indices(
        [instances.shard_of(p) for p in positions],
        [instances.bucket_of(p) for p in positions], state.batch_size, rng)
    seen: List[int] = []
    batch_seconds: List[float] = []
    for chunk in chunks:
        start = time.perf_counter()
        batch_span(instances, chunk)
        batch_seconds.append(time.perf_counter() - start)
        seen.extend(int(p) for p in chunk)
    return seen, batch_seconds, time.perf_counter() - begin


def _fetch_and_collate(instances, chunk):
    from repro.core import batching

    return batching.collate([instances.fetch(int(p)) for p in chunk])


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    setup_s, state = timed_setups(lambda: State(seed), SETUP_REPEATS)
    workers = nproc()
    tracer = Tracer()
    traced_batch = tracer.wrap(_fetch_and_collate, "data.stream.batch")
    collate_stats = probes.CollateStats()
    write_rates: List[float] = []
    read_rates: List[float] = []
    stream_s = {False: [], True: []}
    batch_ms: List[float] = []
    problems: List[str] = []
    fingerprints = set()
    rounds = 0
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds or rounds < MIN_ROUNDS:
        dataset, seconds_written = write(state, fresh_dir("corpus", "round"),
                                         workers)
        write_rates.append(len(dataset) / seconds_written)
        fingerprints.add(dataset.fingerprint())
        traced = trace and rounds % 2 == 1
        if traced:
            probes.install_collate(tracer, collate_stats)
            probes.install_data(tracer)
        try:
            # A traced round repeats the untraced round before it.
            order = np.random.default_rng(
                [seed, rounds // 2 if trace else rounds])
            seen, batches, wall = stream(
                state, dataset, order,
                traced_batch if traced else _fetch_and_collate)
        finally:
            tracer.restore()
        stream_s[traced].append(wall)
        if not traced:
            read_rates.append(len(seen) / wall)
            batch_ms.extend(1e3 * s for s in batches)
        records = dataset.split_indices("train")
        if sorted(int(records[p]) for p in seen) != sorted(map(int, records)):
            problems.append(f"round {rounds}: stream did not cover the "
                            "train split exactly once")
        rounds += 1
        del dataset

    reference, serial_s = write(state, fresh_dir("corpus", "serial"), 1)
    if fingerprints != {reference.fingerprint()}:
        problems.append(f"workers={workers} fingerprints "
                        f"{sorted(fingerprints)} differ from workers=1 "
                        f"{reference.fingerprint()}")
    bytes_per_table = float(np.mean(
        reference.index["length"][reference.split_indices("train")]))
    n_tables = len(reference)
    del reference

    write_rate = median(write_rates)
    report = {
        "corpus.write_tables_per_s": metric(write_rate, "tables/s"),
        "corpus.read_tables_per_s": metric(median(read_rates), "tables/s"),
        "corpus.batch_ms.p50": metric(percentile(batch_ms, 50), "ms"),
        f"corpus.batch_ms.p{TAIL:g}": metric(percentile(batch_ms, TAIL), "ms"),
        "corpus.batch_ms.p99": metric(percentile(batch_ms, 99), "ms"),
        "corpus.rounds": metric(rounds, "count"),
    }
    result = {"correct": not problems, "attempted": rounds,
              "failed": len(problems), "problems": problems, "report": report}
    if not trace:
        result["metrics"] = {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(own_peak_rss_mb(), "MB"),
            "rate_per_s": metric(write_rate, "1/s"),
        }
        return result

    summary = Summary(tracer.threads())
    rows, unattributed, wall = breakdown(summary, "data.stream.batch",
                                         BATCH_ROWS)
    serial_rate = n_tables / serial_s
    result["per_layer"] = {
        "data.stream.batch_ms": wall,
        **rows,
        "data.stream.unattributed_ms": unattributed,
        "core.batching.padding_frac": collate_stats.padding_frac,
        "core.batching.tokens_per_table": collate_stats.tokens_per_table,
        "data.shards.bytes_per_table": bytes_per_table,
        "data.synthesis.ms_per_table": 1e3 * serial_s / n_tables,
        "data.shards.write_parallel_eff": write_rate / (workers * serial_rate),
        "obs.trace_overhead_frac": median(stream_s[True])
        / median(stream_s[False]) - 1.0,
    }
    return result
