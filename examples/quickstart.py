"""Quickstart: build a world, pre-train TURL, inspect what it learned.

Runs in about a minute on a laptop CPU::

    python examples/quickstart.py
"""

import numpy as np

from repro.config import TURLConfig
from repro.core.context import build_context
from repro.core.pretrain import evaluate_object_prediction
from repro.data.statistics import format_statistics, splits_statistics
from repro.data.synthesis import SynthesisConfig
from repro.kb.generator import WorldConfig


def main() -> None:
    # 1. Build the whole pipeline: synthetic knowledge base -> Wikipedia-style
    #    table corpus -> vocabularies -> structure-aware encoder -> MLM+MER
    #    pre-training (paper Sections 4-5).
    context = build_context(
        world_config=WorldConfig(seed=1),
        synthesis_config=SynthesisConfig(seed=2, n_tables=300),
        model_config=TURLConfig(),
        pretrain_epochs=8,
    )

    print("=== corpus (paper Table 3 format) ===")
    print(format_statistics(splits_statistics(context.splits)))
    print()
    print(f"token vocabulary : {len(context.tokenizer.vocab)}")
    print(f"entity vocabulary: {len(context.entity_vocab)}")
    print(f"model parameters : {context.model.num_parameters():,}")

    # 2. The pre-training probe (paper Section 6.8): mask an object entity,
    #    recover it from a candidate set.
    validation = context.instances_for(context.splits.validation)
    accuracy = evaluate_object_prediction(context.model,
                                          context.candidate_builder,
                                          validation, max_tables=20)
    print(f"\nobject-entity recovery accuracy (validation): {accuracy:.3f}")

    # 3. Peek at one table and its masked-entity prediction.
    table = context.splits.validation[0]
    print(f"\nexample table: {table.caption_text()!r}")
    print(f"  headers: {table.headers}")
    print(f"  first row: {[getattr(c, 'mention', c) for c in table.row(0)]}")

    # 4. Contextualized representations for downstream use: encode the table
    #    and show the shape of the element embeddings.
    from repro.core.batching import collate

    instance = context.linearizer.encode(table)
    batch = collate([instance])
    token_hidden, entity_hidden = context.model.encode(batch)
    print(f"  token representations : {token_hidden.shape}")
    print(f"  entity representations: {entity_hidden.shape}")


if __name__ == "__main__":
    main()
