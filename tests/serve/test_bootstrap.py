"""The serving bootstrap's fine-tune path: every trainable head runs once."""

from repro.obs import RunJournal, read_journal
from repro.serve import build_serving_bundle


def test_bootstrap_finetunes_each_trainable_head(context, tmp_path):
    path = str(tmp_path / "bootstrap.jsonl")
    with RunJournal(path) as journal:
        bundle = build_serving_bundle(context.clone_model(), context.linearizer,
                                      context.kb, context.splits, seed=0,
                                      finetune_epochs=1,
                                      finetune_max_instances=2,
                                      journal=journal)
    first_steps = [event for event in read_journal(path)
                   if event["event"] == "step" and event["step"] == 1]
    # entity linking, column type, relation extraction, row population and
    # schema augmentation each run one Trainer; cell filling is zero-shot
    assert len(first_steps) == 5
    assert len(bundle.predictor.adapters) == 6
