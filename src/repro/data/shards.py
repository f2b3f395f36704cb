"""Packed on-disk corpus format: fixed-width index + varlen payload shards.

A shard directory holds three kinds of files::

    meta.json        provenance: format version, synthesis config, seed,
                     strategy-tag inventory, split sizes
    index.bin        24-byte header + one fixed-width record per table
    shard-0000.bin   concatenated UTF-8 JSON table payloads (varlen)
    ...

``index.bin`` layout — header ``(magic "TURLSHRD", u32 version, u32
n_shards, u64 n_records)`` followed by packed little-endian records:

    ========  =====  ==================================================
    field     bytes  meaning
    ========  =====  ==================================================
    shard     u2     payload shard number
    split     u1     0 train / 1 validation / 2 test
    strategy  u1     synthesis recipe id (``meta.json["strategies"]``)
    offset    u8     payload byte offset within the shard file
    length    u4     payload byte length
    bucket    u4     shape key ``n_rows << 16 | n_columns``
    hash      u8     first 8 bytes of blake2b(payload), integrity check
    ========  =====  ==================================================

Both the index and the payload shards are read zero-copy through read-only
``np.memmap``; a record decode touches only its own pages, so epoch
iteration at ~1M tables runs without RAM pressure.  Writing fans shards out
to parallel synthesizer workers, each driven by its own
``SeedSequence(seed).spawn(...)`` child stream — output bytes depend only on
``(seed, n_shards)``, never on the worker count.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.corpus import CorpusSplits, TableCorpus
from repro.data.dataset import SPLIT_NAMES, DatasetMetadata
from repro.data.preprocessing import filter_relational, partition_corpus
from repro.data.synthesis import RECIPE_NAMES, SynthesisConfig, TableSynthesizer
from repro.data.table import Table
from repro.kb.knowledge_base import KnowledgeBase
from repro.obs import get_registry, trace

INDEX_MAGIC = b"TURLSHRD"
INDEX_VERSION = 1
INDEX_HEADER = np.dtype([("magic", "S8"), ("version", "<u4"),
                         ("n_shards", "<u4"), ("n_records", "<u8")])
INDEX_DTYPE = np.dtype([("shard", "<u2"), ("split", "<u1"),
                        ("strategy", "<u1"), ("offset", "<u8"),
                        ("length", "<u4"), ("bucket", "<u4"),
                        ("hash", "<u8")])
META_FILE = "meta.json"
INDEX_FILE = "index.bin"
SPLIT_CODES = {name: code for code, name in enumerate(SPLIT_NAMES)}
#: strategy id 0 is reserved for untagged tables
STRATEGY_IDS = {name: i + 1 for i, name in enumerate(RECIPE_NAMES)}


class ShardFormatError(ValueError):
    """The shard directory is malformed (bad magic, truncated files, ...)."""


class ShardIntegrityError(ShardFormatError):
    """A payload's content does not match its indexed blake2b hash."""


def shard_file(shard: int) -> str:
    return f"shard-{shard:04d}.bin"


def payload_hash(blob: bytes) -> int:
    """First 8 bytes of blake2b(payload) as an unsigned little-endian int."""
    return int.from_bytes(hashlib.blake2b(blob, digest_size=8).digest(),
                          "little")


def bucket_code(table: Table) -> int:
    """Pack the table's shape class into the index's u4 bucket key."""
    return (min(table.n_rows, 0xFFFF) << 16) | min(table.n_columns, 0xFFFF)


# -- writer ------------------------------------------------------------------

def _synthesize_shard(kb: KnowledgeBase, config: SynthesisConfig, shard: int,
                      seed_seq: np.random.SeedSequence, n_tables: int
                      ) -> Tuple[bytes, np.ndarray]:
    """Synthesize one shard: payload bytes + its index records.

    Depends only on ``(kb, config, shard, seed_seq, n_tables)`` — the same
    shard is byte-identical no matter which worker (or how many) runs it.
    """
    synth_child, split_child = seed_seq.spawn(2)
    synthesizer = TableSynthesizer(kb, config,
                                   rng=np.random.default_rng(synth_child),
                                   table_id_prefix=f"tbl_s{shard:03d}")
    corpus = filter_relational(synthesizer.generate(n_tables))
    split_seed = int(split_child.generate_state(1)[0])
    splits = partition_corpus(corpus, seed=split_seed)
    split_of: Dict[str, int] = {}
    for name, sub in (("train", splits.train), ("validation", splits.validation),
                      ("test", splits.test)):
        for table in sub:
            split_of[table.table_id] = SPLIT_CODES[name]

    payload = bytearray()
    records = np.zeros(len(corpus), dtype=INDEX_DTYPE)
    for i, table in enumerate(corpus):
        blob = table.to_json().encode("utf-8")
        records[i] = (shard, split_of[table.table_id],
                      STRATEGY_IDS.get(table.strategy or "", 0),
                      len(payload), len(blob), bucket_code(table),
                      payload_hash(blob))
        payload += blob
    return bytes(payload), records


def _shard_job(args: Tuple) -> Tuple[bytes, np.ndarray]:
    return _synthesize_shard(*args)


def write_sharded_corpus(kb: KnowledgeBase, config: SynthesisConfig,
                         directory: str, n_shards: int = 4,
                         workers: int = 1) -> "ShardedDataset":
    """Synthesize, partition and pack a corpus into ``directory``.

    ``config.n_tables`` is divided evenly across ``n_shards``; each shard's
    synthesizer and split RNGs come from ``SeedSequence(config.seed)``
    children, so the written bytes are a pure function of the config and the
    shard count.  ``workers > 1`` fans shards out over a process pool
    (forked, falling back to in-process synthesis when multiprocessing is
    unavailable).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    if n_shards > 0xFFFF:
        raise ValueError("n_shards must fit the index's u2 shard field")
    os.makedirs(directory, exist_ok=True)
    children = np.random.SeedSequence(config.seed).spawn(n_shards)
    base, extra = divmod(config.n_tables, n_shards)
    jobs = [(kb, config, shard, children[shard],
             base + (1 if shard < extra else 0))
            for shard in range(n_shards)]

    results: List[Optional[Tuple[bytes, np.ndarray]]] = [None] * n_shards
    if workers > 1:
        try:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers,
                                     mp_context=context) as pool:
                for shard, result in enumerate(pool.map(_shard_job, jobs)):
                    results[shard] = result
        except (ImportError, OSError, ValueError):
            results = [None] * n_shards
    if any(result is None for result in results):
        results = [_shard_job(job) for job in jobs]

    index_rows: List[np.ndarray] = []
    split_sizes = {name: 0 for name in SPLIT_NAMES}
    for shard, (payload, records) in enumerate(results):
        with open(os.path.join(directory, shard_file(shard)), "wb") as handle:
            handle.write(payload)
        for name, code in SPLIT_CODES.items():
            split_sizes[name] += int((records["split"] == code).sum())
        index_rows.append(records)
    index = (np.concatenate(index_rows) if index_rows
             else np.zeros(0, dtype=INDEX_DTYPE))

    header = np.zeros(1, dtype=INDEX_HEADER)
    header[0] = (INDEX_MAGIC, INDEX_VERSION, n_shards, len(index))
    with open(os.path.join(directory, INDEX_FILE), "wb") as handle:
        handle.write(header.tobytes())
        handle.write(index.tobytes())

    meta = {
        "format": "turl-shards",
        "version": INDEX_VERSION,
        "n_shards": n_shards,
        "n_records": len(index),
        "seed": config.seed,
        "synthesis_config": asdict(config),
        "strategies": list(RECIPE_NAMES),
        "split_sizes": split_sizes,
    }
    with open(os.path.join(directory, META_FILE), "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return ShardedDataset(directory)


# -- reader ------------------------------------------------------------------

class _SplitView:
    """Lazy sequence view over one split's records (decoded on access)."""

    def __init__(self, dataset: "ShardedDataset", indices: np.ndarray):
        self._dataset = dataset
        self._indices = indices

    def __len__(self) -> int:
        return len(self._indices)

    def __iter__(self) -> Iterator[Table]:
        for index in self._indices:
            yield self._dataset.table(int(index))

    def __getitem__(self, position: int) -> Table:
        return self._dataset.table(int(self._indices[position]))

    @property
    def record_indices(self) -> np.ndarray:
        return self._indices.copy()


class ShardedDataset:
    """Zero-copy reader over a shard directory (the streaming ``Dataset``).

    The index and the payload shards are bound as read-only ``np.memmap``
    arrays; :meth:`table` decodes one record's JSON slice on demand.  Shard
    read/decode traffic is observable as ``corpus.shard.records`` /
    ``corpus.shard.bytes`` counters and the ``corpus.shard.decode``
    histogram of ``corpus/shard/decode`` span seconds.

    ``verify_hashes=True`` checks every decoded payload against its indexed
    blake2b tag (:class:`ShardIntegrityError` on mismatch).
    """

    def __init__(self, directory: str, verify_hashes: bool = False):
        self.directory = directory
        self.verify_hashes = verify_hashes
        meta_path = os.path.join(directory, META_FILE)
        try:
            with open(meta_path) as handle:
                self.meta = json.load(handle)
        except OSError as error:
            raise ShardFormatError(f"not a shard directory: {error}")
        except json.JSONDecodeError as error:
            raise ShardFormatError(f"corrupt {META_FILE}: {error}")

        index_path = os.path.join(directory, INDEX_FILE)
        header_bytes = INDEX_HEADER.itemsize
        try:
            size = os.path.getsize(index_path)
        except OSError as error:
            raise ShardFormatError(f"missing {INDEX_FILE}: {error}")
        if size < header_bytes:
            raise ShardFormatError(f"truncated {INDEX_FILE}: "
                                   f"{size} bytes < {header_bytes}-byte header")
        header = np.memmap(index_path, dtype=INDEX_HEADER, mode="r",
                           shape=(1,))[0]
        if bytes(header["magic"]) != INDEX_MAGIC:
            raise ShardFormatError(
                f"bad index magic {bytes(header['magic'])!r}")
        if int(header["version"]) != INDEX_VERSION:
            raise ShardFormatError(
                f"unsupported shard format version {int(header['version'])}")
        self.n_shards = int(header["n_shards"])
        n_records = int(header["n_records"])
        expected = header_bytes + n_records * INDEX_DTYPE.itemsize
        if size != expected:
            raise ShardFormatError(
                f"truncated {INDEX_FILE}: {size} bytes, header promises "
                f"{n_records} records ({expected} bytes)")
        #: read-only fixed-width record array (one row per table)
        self.index = np.memmap(index_path, dtype=INDEX_DTYPE, mode="r",
                               offset=header_bytes, shape=(n_records,))
        self._shards: Dict[int, np.memmap] = {}
        self._strategies: List[str] = list(self.meta.get("strategies", []))

    # -- raw record access -------------------------------------------------
    def __len__(self) -> int:
        return int(self.index.shape[0])

    def _shard_data(self, shard: int) -> np.memmap:
        if shard not in self._shards:
            path = os.path.join(self.directory, shard_file(shard))
            try:
                self._shards[shard] = np.memmap(path, dtype=np.uint8,
                                                mode="r")
            except (OSError, ValueError) as error:
                raise ShardFormatError(
                    f"cannot map payload shard {shard}: {error}")
        return self._shards[shard]

    def payload(self, index: int) -> np.ndarray:
        """The raw payload bytes of one record, as a zero-copy memmap view."""
        record = self.index[index]
        data = self._shard_data(int(record["shard"]))
        offset, length = int(record["offset"]), int(record["length"])
        if offset + length > data.shape[0]:
            raise ShardFormatError(
                f"record {index} spans [{offset}, {offset + length}) past "
                f"the end of {shard_file(int(record['shard']))} "
                f"({data.shape[0]} bytes)")
        registry = get_registry()
        registry.counter("corpus.shard.records").inc()
        registry.counter("corpus.shard.bytes").inc(length)
        return data[offset:offset + length]

    def table(self, index: int, verify: Optional[bool] = None) -> Table:
        """Decode one record into a :class:`Table`."""
        blob = bytes(self.payload(index))
        if self.verify_hashes if verify is None else verify:
            expected = int(self.index[index]["hash"])
            if payload_hash(blob) != expected:
                raise ShardIntegrityError(
                    f"record {index}: payload hash mismatch "
                    f"(index {expected:#018x})")
        with trace("corpus/shard/decode") as span:
            table = Table.from_json(blob.decode("utf-8"))
        get_registry().histogram("corpus.shard.decode").observe(span.seconds)
        return table

    # -- per-record metadata (no decode) ------------------------------------
    def shard_of(self, index: int) -> int:
        return int(self.index[index]["shard"])

    def split_of(self, index: int) -> str:
        return SPLIT_NAMES[int(self.index[index]["split"])]

    def strategy_of(self, index: int) -> Optional[str]:
        code = int(self.index[index]["strategy"])
        if code == 0 or code > len(self._strategies):
            return None
        return self._strategies[code - 1]

    def bucket_of(self, index: int) -> int:
        """The packed shape key stored in the index (rows << 16 | cols)."""
        return int(self.index[index]["bucket"])

    def split_indices(self, split: str = "train") -> np.ndarray:
        if split not in SPLIT_CODES:
            raise KeyError(f"unknown split {split!r}; "
                           f"expected one of {SPLIT_NAMES}")
        return np.flatnonzero(self.index["split"] == SPLIT_CODES[split])

    def strategy_indices(self, strategy: str) -> np.ndarray:
        if strategy not in STRATEGY_IDS:
            raise KeyError(f"unknown strategy {strategy!r}; "
                           f"expected one of {tuple(STRATEGY_IDS)}")
        return np.flatnonzero(self.index["strategy"]
                              == STRATEGY_IDS[strategy])

    def fingerprint(self) -> str:
        """A stable content id of the corpus (index bytes + provenance)."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.asarray(self.index).tobytes())
        digest.update(json.dumps(self.meta, sort_keys=True).encode("utf-8"))
        return digest.hexdigest()

    # -- Dataset protocol --------------------------------------------------
    def __iter__(self) -> Iterator[Table]:
        for index in range(len(self)):
            yield self.table(index)

    def instances(self, split: str = "train") -> _SplitView:
        return _SplitView(self, self.split_indices(split))

    @property
    def metadata(self) -> DatasetMetadata:
        strategies = self.index["strategy"]
        counts: Dict[str, int] = {}
        for code in np.unique(strategies):
            name = (self._strategies[int(code) - 1]
                    if 0 < int(code) <= len(self._strategies) else "untagged")
            counts[name] = int((strategies == code).sum())
        return DatasetMetadata(
            source=self.directory,
            n_records=len(self),
            split_sizes={name: int(len(self.split_indices(name)))
                         for name in SPLIT_NAMES},
            strategy_counts=counts,
            extra={"n_shards": self.n_shards,
                   "seed": self.meta.get("seed"),
                   "fingerprint": self.fingerprint()},
        )

    # -- vocabulary / escape hatches ---------------------------------------
    def entity_counts(self, split: Optional[str] = "train"):
        """Streaming equivalent of :meth:`TableCorpus.entity_counts`."""
        from collections import Counter

        counts: Counter = Counter()
        for table in self._view(split):
            for entity_id in table.linked_entities():
                counts[entity_id] += 1
            if table.topic_entity:
                counts[table.topic_entity] += 1
        return counts

    def metadata_texts(self, split: Optional[str] = "train") -> List[str]:
        """Streaming equivalent of :meth:`TableCorpus.metadata_texts`."""
        texts: List[str] = []
        for table in self._view(split):
            texts.append(table.caption_text())
            texts.extend(table.headers)
        return texts

    def _view(self, split: Optional[str]):
        return self if split is None else self.instances(split)

    def in_memory(self, split: Optional[str] = None) -> TableCorpus:
        """Materialize (one split of) the corpus as a legacy in-memory
        :class:`TableCorpus` — the escape hatch for small corpora and
        bit-parity tests."""
        return TableCorpus(self._view(split))

    def splits(self) -> CorpusSplits:
        """Materialize all three splits (small-corpus escape hatch)."""
        return CorpusSplits(self.in_memory("train"),
                            self.in_memory("validation"),
                            self.in_memory("test"))
