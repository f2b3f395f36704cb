"""The per-layer metrics: what each one times and what it should move.

Each row is ``(name, unit, better, boundary, should move)``.  Times are
milliseconds per unit of work: per optimizer step on ``pretrain``, per
streamed batch of 8 tables on ``corpus``, per HTTP request on the serve
workloads.  A traced run reports every row; a row the workload does not
exercise reads 0.  ``BENCHMARK.json`` lists the same names, units and
directions (a test holds the two together).

Not measured until tracing lands inside the program: backward time per
layer or block (``Tensor.backward`` runs the whole tape in one call), the
split of queue time inside a fleet lane, and spans inside the shard
writer's child processes (``data.synthesis.ms_per_table`` and
``data.shards.write_parallel_eff`` come from whole-write wall times).
"""

from __future__ import annotations

import re
from typing import Dict

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

LAYERS = (
    # -- pretrain: the rows of one step, which reconcile to its wall time
    ("train.step_ms", "ms", "lower", "Trainer.run_step (traced wall)",
     "pretrain.step_ms.p50 on pretrain"),
    ("core.batching.collate_ms", "ms", "lower", "collate",
     "pretrain.step_ms.p50 on pretrain (small share); "
     "corpus.read_tables_per_s on corpus (large share)"),
    ("core.batching.padding_frac", "ratio", "lower",
     "counts read off collated masks",
     "pretrain.step_ms.* on pretrain (attention cost grows as L^2)"),
    ("core.batching.tokens_per_table", "count", "lower",
     "counts read off collated masks", "pretrain.step_ms.* on pretrain"),
    ("core.masking.apply_ms", "ms", "lower", "MaskingPolicy.apply",
     "pretrain.step_ms.p50 on pretrain"),
    ("core.model.embed_ms", "ms", "lower",
     "TURLModel.encode self time outside the encoder",
     "pretrain.step_ms.p50 on pretrain; serve.light.p50_ms on serve_unique"),
    ("nn.attention.forward_ms", "ms", "lower", "MultiHeadAttention.forward",
     "pretrain.step_ms.p50 on pretrain; serve.light.p50_ms on serve_unique"),
    ("nn.ffn.forward_ms", "ms", "lower",
     "TransformerBlock.forward self time (FFN, GELU, LayerNorm)",
     "pretrain.step_ms.p50 on pretrain; serve.light.p50_ms on serve_unique"),
    ("core.model.heads_ms", "ms", "lower",
     "mlm_logits, mer_logits, masked_cross_entropy",
     "pretrain.step_ms.p50 on pretrain"),
    ("core.candidates.build_ms", "ms", "lower", "CandidateBuilder.build",
     "pretrain.step_ms.p50 on pretrain"),
    ("core.candidates.per_step", "count", "lower", "CandidateBuilder.build",
     "pretrain.step_ms.p50 on pretrain"),
    ("nn.backward_ms", "ms", "lower", "Tensor.backward on the loss",
     "pretrain.* only (serving runs without grad)"),
    ("nn.optim.clip_ms", "ms", "lower", "clip_grad_norm", "pretrain.* only"),
    ("nn.optim.adam_ms", "ms", "lower", "Adam.step", "pretrain.* only"),
    ("core.visibility.hit_rate", "ratio", "higher",
     "cached_visibility stats over the traced window",
     "pretrain.step_ms.p50 on pretrain; serve.light.p50_ms on serve_unique"),
    ("train.unattributed_ms", "ms", "lower",
     "step wall minus the rows above",
     "reconciliation row: it must stay small"),
    # -- corpus: the rows of one streamed batch, which reconcile to its wall
    ("data.stream.batch_ms", "ms", "lower",
     "fetch + collate of one batch (traced wall)",
     "corpus.read_tables_per_s on corpus"),
    ("data.shards.decode_ms", "ms", "lower", "ShardedDataset.table",
     "corpus.read_tables_per_s on corpus"),
    ("core.linearize.encode_ms", "ms", "lower",
     "Linearizer.encode self time",
     "corpus.read_tables_per_s on corpus; serve.light.p50_ms on serve_unique"),
    ("text.tokenizer.encode_ms", "ms", "lower", "WordPieceTokenizer.encode",
     "corpus.read_tables_per_s on corpus; serve.light.p50_ms on serve_unique"),
    ("data.stream.unattributed_ms", "ms", "lower",
     "batch wall minus the rows above",
     "reconciliation row: it must stay small"),
    ("data.shards.bytes_per_table", "bytes", "lower",
     "index record lengths", "corpus.* on corpus"),
    ("data.synthesis.ms_per_table", "ms", "lower",
     "workers=1 write wall / tables",
     "corpus.write_tables_per_s on corpus"),
    ("data.shards.write_parallel_eff", "ratio", "higher",
     "tables/s at nproc workers / (nproc x tables/s at 1 worker)",
     "corpus.write_tables_per_s on corpus"),
    # -- serving: per request over the traced rungs
    ("serve.http.overhead_ms", "ms", "lower",
     "client latency minus the tier call (PredictorFleet.predict_payloads, "
     "or MicroBatcher.submit until its future resolves)",
     "serve.*.p50_ms on both serve workloads"),
    ("serve.queue.wait_ms", "ms", "lower",
     "tier call minus the lane's or batcher's call into its Predictor",
     "serve.heavy.p99_ms; on serve_unique it includes the flush deadline"),
    ("serve.batch.size", "count", "higher",
     "instances per Predictor call",
     "serve.heavy.* and serve.max_rate_rps on serve_unique"),
    ("serve.adapters.decode_ms", "ms", "lower", "TaskAdapter.decode_instance",
     "serve.*.p50_ms on both serve workloads"),
    ("serve.adapters.predict_ms", "ms", "lower",
     "TaskAdapter.predict_batch self time",
     "serve.*.p50_ms on both serve workloads"),
    ("kb.lookup_ms", "ms", "lower", "LookupService.lookup",
     "serve.*.p99_ms (entity linking); payloads carry their candidates, "
     "so the server never calls it per request"),
    ("core.model.encode_ms", "ms", "lower", "TURLModel.encode in the server",
     "serve_unique p50; near zero on serve_zipf"),
    ("core.model.encode_calls_per_req", "count", "lower",
     "TURLModel.encode in the server", "serve_unique p50"),
    ("serve.cache.hit_rate", "ratio", "higher",
     "/metrics encode_cache hits and misses over the traced window",
     "serve_zipf p50 and serve.max_rate_rps; ~0 by design on serve_unique"),
    ("serve.fleet.imbalance", "ratio", "lower",
     "max / mean per-worker requests, from /metrics",
     "serve.heavy.p99_ms on serve_zipf"),
    ("serve.rejected", "count", "lower", "429/503 answers", "ops_failed"),
    ("loadgen.lag_ms.p99", "ms", "lower", "generator lateness",
     "validity check only; no program change should move it"),
    ("obs.trace_overhead_frac", "ratio", "lower",
     "traced wall / untraced wall - 1",
     "validity check only; no program change should move it"),
)

UNITS = {name: unit for name, unit, *_ in LAYERS}


def per_layer_metrics(values: Dict[str, float]) -> Dict[str, Dict]:
    """Every per-layer metric, 0 where the workload does not reach it."""
    unknown = set(values) - set(UNITS)
    if unknown:
        raise ValueError(f"per-layer values with no row: {sorted(unknown)}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in UNITS.items()}
