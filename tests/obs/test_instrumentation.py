"""Instrumented pre-training: determinism, mode restore, journal wiring."""

import numpy as np

from repro.core.pretrain import Pretrainer
from repro.obs import (
    RunJournal,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    read_journal,
)


def _train_losses(context, instances, journal=None, n_epochs=2):
    model = context.fresh_model(seed=3)
    pretrainer = Pretrainer(model, instances, context.candidate_builder,
                            context.config, seed=1, journal=journal)
    stats = pretrainer.train(n_epochs=n_epochs)
    return stats, model


def test_losses_bit_identical_with_instrumentation_on_vs_off(
        request, tmp_path):
    context = request.getfixturevalue("context")
    instances = context.instances_for(context.splits.train)[:16]

    disable_metrics()
    disable_tracing()
    plain_stats, plain_model = _train_losses(context, instances)

    enable_metrics()
    enable_tracing()
    journal = RunJournal(str(tmp_path / "run.jsonl"))
    try:
        observed_stats, observed_model = _train_losses(context, instances,
                                                       journal=journal)
    finally:
        journal.close()

    # Bit-identical, not approximately equal: instrumentation must never
    # touch an RNG or reorder a floating-point computation.
    assert observed_stats.losses == plain_stats.losses
    assert observed_stats.mlm_losses == plain_stats.mlm_losses
    assert observed_stats.mer_losses == plain_stats.mer_losses
    for key, value in plain_model.state_dict().items():
        np.testing.assert_array_equal(observed_model.state_dict()[key], value)


def test_stats_carry_wall_seconds_and_throughput(request):
    context = request.getfixturevalue("context")
    instances = context.instances_for(context.splits.train)[:8]
    stats, _ = _train_losses(context, instances, n_epochs=1)
    assert stats.steps == len(stats.losses) > 0
    assert stats.wall_seconds > 0.0
    assert stats.throughput > 0.0


def test_pretrainer_journal_records_header_steps_and_probe(request, tmp_path):
    context = request.getfixturevalue("context")
    instances = context.instances_for(context.splits.train)[:8]
    model = context.fresh_model(seed=3)
    path = str(tmp_path / "run.jsonl")
    with RunJournal(path) as journal:
        pretrainer = Pretrainer(model, instances, context.candidate_builder,
                                context.config, seed=1, journal=journal)
        pretrainer.train(n_epochs=1, eval_instances=instances[:4])
    events = read_journal(path)
    kinds = [e["event"] for e in events]
    assert kinds[0] == "header"
    assert kinds.count("step") >= 1
    assert kinds[-1] == "probe"
    header = events[0]
    assert header["seed"] == 1
    assert header["config"]["dim"] == context.config.dim
    step = next(e for e in events if e["event"] == "step")
    for key in ("loss", "mlm", "mer", "lr", "grad_norm", "tokens", "seconds",
                "tokens_per_second", "forward_seconds", "backward_seconds",
                "optimizer_seconds"):
        assert key in step


def test_step_metrics_and_spans_recorded(request):
    context = request.getfixturevalue("context")
    instances = context.instances_for(context.splits.train)[:8]
    registry = enable_metrics()
    tracer = enable_tracing()
    stats, _ = _train_losses(context, instances, n_epochs=1)
    assert registry.counter("pretrain.steps").value == stats.steps
    assert registry.histogram("pretrain.forward").count == stats.steps
    totals = tracer.totals()
    assert totals["pretrain/step"].count == stats.steps
    assert totals["pretrain/step/forward"].count == stats.steps
    assert totals["model/encode/encoder"].count >= stats.steps
    assert "pretrain/train" in tracer.report()


def test_probe_restores_callers_mode(request):
    context = request.getfixturevalue("context")
    instances = context.instances_for(context.splits.train)[:6]
    pretrainer = Pretrainer(context.model, instances,
                            context.candidate_builder, context.config)

    pretrainer.model.train()
    pretrainer.evaluate_object_prediction(instances[:4])
    assert pretrainer.model.training, "probe must restore train mode"

    pretrainer.model.eval()
    pretrainer.evaluate_object_prediction(instances[:4])
    assert not pretrainer.model.training, "probe must leave eval mode alone"
