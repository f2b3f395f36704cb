"""Where the traced runs put their wrappers, one group per layer set.

Each function patches public entry points of the program with spans named
after the per-layer metric they feed (see ``layers.py``).  Functions that
modules import by value are patched in the module that looks them up.
"""

from __future__ import annotations

import time
from typing import Dict

from spans import Tracer


def _first_len(*args, **kwargs) -> int:
    return len(args[0])


def _third_len(*args, **kwargs) -> int:
    return len(args[2])


class CollateStats:
    """Real and padded element counts read off collated masks."""

    def __init__(self) -> None:
        self.tables = 0
        self.real = 0
        self.padded = 0

    def record(self, batch: Dict) -> None:
        token_mask, entity_mask = batch["token_mask"], batch["entity_mask"]
        self.tables += token_mask.shape[0]
        self.real += int(token_mask.sum() + entity_mask.sum())
        self.padded += token_mask.size + entity_mask.size

    @property
    def padding_frac(self) -> float:
        return 1.0 - self.real / self.padded if self.padded else 0.0

    @property
    def tokens_per_table(self) -> float:
        return self.real / self.tables if self.tables else 0.0


def install_collate(tracer: Tracer, stats: CollateStats) -> None:
    import repro.core.batching as batching
    import repro.core.pretrain as pretrain

    def observed(original):
        def collate(instances):
            batch = original(instances)
            if tracer.active:
                stats.record(batch)
            return batch
        return tracer.wrap(collate, "core.batching.collate", _first_len)

    for module in (batching, pretrain):
        tracer.substitute(module, "collate", observed)


def install_model(tracer: Tracer) -> None:
    """Embedding, attention, block (FFN + GELU + LayerNorm) and heads."""
    import repro.core.pretrain as pretrain
    from repro.core.model import TURLModel
    from repro.nn.attention import MultiHeadAttention
    from repro.nn.transformer import TransformerBlock

    tracer.patch(TURLModel, "encode", "core.model.encode")
    tracer.patch(TransformerBlock, "forward", "nn.block")
    tracer.patch(MultiHeadAttention, "forward", "nn.attention")
    tracer.patch(TURLModel, "mlm_logits", "core.model.heads")
    tracer.patch(TURLModel, "mer_logits", "core.model.heads")
    tracer.patch(pretrain, "masked_cross_entropy", "core.model.heads")


def install_training(tracer: Tracer) -> None:
    """The step, masking, candidates, backward and the optimizer."""
    import repro.train.engine as engine
    from repro.core.candidates import CandidateBuilder
    from repro.core.masking import MaskingPolicy
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor

    tracer.patch(engine.Trainer, "run_step", "train.step")
    tracer.patch(MaskingPolicy, "apply", "core.masking.apply")
    tracer.patch(CandidateBuilder, "build", "core.candidates.build")
    tracer.patch(Tensor, "backward", "nn.backward")
    tracer.patch(engine, "clip_grad_norm", "nn.optim.clip")
    tracer.patch(Adam, "step", "nn.optim.adam")


def install_data(tracer: Tracer) -> None:
    """Shard decode, linearization and the tokenizer."""
    from repro.core.linearize import Linearizer
    from repro.data.shards import ShardedDataset
    from repro.text.tokenizer import WordPieceTokenizer

    tracer.patch(ShardedDataset, "table", "data.shards.decode")
    tracer.patch(Linearizer, "encode", "core.linearize.encode")
    tracer.patch(WordPieceTokenizer, "encode", "text.tokenizer.encode")


def install_serving(tracer: Tracer) -> None:
    """The serving tier, the predictor call, adapters and KB lookup.

    ``serve.tier`` is the call a request makes into the serving tier:
    ``PredictorFleet.predict_payloads`` in fleet mode; in single-worker
    mode, the interval from ``MicroBatcher.submit`` until its future
    resolves.  ``serve.predictor`` is the outermost ``Predictor`` call on
    the lane or batcher thread, counted in instances.
    """
    from repro.kb.lookup import LookupService
    from repro.serve.adapters import TaskAdapter
    from repro.serve.batcher import MicroBatcher
    from repro.serve.fleet import PredictorFleet
    from repro.serve.predictor import Predictor

    tracer.patch(PredictorFleet, "predict_payloads", "serve.tier")

    def timed_submit(original):
        def submit(self, task, instance):
            start = time.perf_counter()
            future = original(self, task, instance)
            future.add_done_callback(
                lambda _: tracer.add("serve.tier", start,
                                     time.perf_counter()))
            return future
        return submit

    tracer.substitute(MicroBatcher, "submit", timed_submit)
    tracer.patch(Predictor, "predict_payloads", "serve.predictor", _third_len)
    tracer.patch(Predictor, "predict_batch", "serve.predictor", _third_len)
    for adapter in TaskAdapter.__subclasses__():
        tracer.patch(adapter, "decode_instance", "serve.adapters.decode")
        tracer.patch(adapter, "predict_batch", "serve.adapters.predict")
    tracer.patch(LookupService, "lookup", "kb.lookup")
