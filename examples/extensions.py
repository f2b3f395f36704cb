"""The paper's future-work directions, implemented and demonstrated.

1. Numerical attributes: masked value recovery over numeric columns.
2. KB injection: ERNIE-style relation supervision during pre-training.
3. A TAPAS-style flat-text baseline for comparison.

    python examples/extensions.py
"""

import numpy as np

from repro.config import TURLConfig
from repro.core.context import build_context
from repro.core.pretrain import Pretrainer
from repro.data.synthesis import SynthesisConfig
from repro.ext.kb_injection import KBInjectionPretrainer
from repro.ext.numeric import NumericBinner, TURLValuePredictor, build_numeric_instances
from repro.ext.tapas_baseline import TapasStyleColumnTyper
from repro.kb.generator import WorldConfig
from repro.tasks.column_type import build_column_type_dataset


def main() -> None:
    context = build_context(
        world_config=WorldConfig(seed=1),
        synthesis_config=SynthesisConfig(seed=2, n_tables=300),
        model_config=TURLConfig(),
        pretrain_epochs=8,
    )

    # --- 1. Numerical attributes ----------------------------------------
    train = build_numeric_instances(context.splits.train)
    test = build_numeric_instances(context.splits.test)[:60]
    binner = NumericBinner(n_bins=4).fit([i.value for i in train])
    predictor = TURLValuePredictor(context.clone_model(), context.linearizer,
                                   binner)
    predictor.finetune(train, epochs=2, max_instances=200)
    print("=== numerical attributes (masked value recovery) ===")
    print(f"  numeric cells: {len(train)} train / {len(test)} test")
    if test:
        print(f"  bin accuracy       : {predictor.accuracy(test):.3f} "
              f"(chance {1 / binner.n_classes:.3f})")
        print(f"  within-one-bin     : {predictor.within_one_bin(test):.3f}")
        example = test[0]
        predicted = predictor.predict_bin(example)
        low, high = binner.bin_range(predicted)
        print(f"  example: {example.table.caption_text()!r} year={example.value:.0f}"
              f" -> predicted bin [{low:.0f}, {high:.0f}]")

    # --- 2. KB-injection pre-training ------------------------------------
    instances = context.instances_for(context.splits.train)[:120]
    injected = KBInjectionPretrainer(context.fresh_model(seed=5), instances,
                                     context.candidate_builder, context.kb,
                                     config=context.config)
    injected.train(n_epochs=4)
    plain = Pretrainer(context.fresh_model(seed=5), instances,
                       context.candidate_builder, context.config)
    plain.train(n_epochs=4)
    eval_instances = context.instances_for(context.splits.validation)[:15]
    print("\n=== KB-injection pre-training ===")
    print(f"  probe (MLM+MER)           : "
          f"{plain.evaluate_object_prediction(eval_instances):.3f}")
    print(f"  probe (MLM+MER+relations) : "
          f"{injected.evaluate_object_prediction(eval_instances):.3f}")
    print(f"  mean relation loss        : "
          f"{np.mean([l for l in injected.relation_losses if l > 0]):.3f}")

    # --- 3. TAPAS-style baseline -----------------------------------------
    dataset = build_column_type_dataset(context.kb, context.splits.train,
                                        context.splits.validation,
                                        context.splits.test,
                                        min_type_instances=10)
    tapas = TapasStyleColumnTyper(context.tokenizer, len(dataset.type_names))
    tapas.fit(dataset, epochs=2, max_instances=200)
    print("\n=== TAPAS-style flat-text baseline (column typing) ===")
    print(f"  TAPAS-style: {tapas.evaluate(dataset.test[:40], dataset)}")


if __name__ == "__main__":
    main()
