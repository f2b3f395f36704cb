"""Unit tests for the shared training engine on a tiny synthetic task."""

import numpy as np
import pytest

from repro.nn import Linear, Module, Tensor, binary_cross_entropy_logits
from repro.obs import RunJournal, read_journal
from repro.train import (
    StepOutput,
    TrainSpec,
    TrainableTask,
    Trainer,
    subsample_items,
)


class _ToyModule(Module):
    def __init__(self, dim=3, n_out=2, seed=7):
        super().__init__()
        self.linear = Linear(dim, n_out, np.random.default_rng(seed))

    def forward(self, x):
        return self.linear(x)


class ToyTask(TrainableTask):
    """Binary classification over fixed random items; fully deterministic."""

    name = "toy"

    def __init__(self, n_items=6, dim=3, seed=7, skip_odd=False,
                 null_odd=False):
        self.module = _ToyModule(dim=dim, seed=seed)
        rng = np.random.default_rng(seed + 1)
        self.items = [(rng.normal(size=dim), (rng.random(2) > 0.5).astype(float))
                      for _ in range(n_items)]
        self.skip_odd = skip_odd
        self.null_odd = null_odd
        self.eval_calls = []
        self.eval_value = 0.5

    def build_batches(self):
        return list(range(len(self.items)))

    def loss(self, index, rng):
        if self.skip_odd and index % 2 == 1:
            return None
        if self.null_odd and index % 2 == 1:
            return StepOutput(loss=None, extras={"nulled": 1.0})
        x, labels = self.items[index]
        logits = self.module(Tensor(x.reshape(1, -1)))
        return binary_cross_entropy_logits(logits, labels.reshape(1, -1))

    def eval_metric(self):
        self.eval_calls.append(self.module.training)
        return self.eval_value

    def config_dict(self):
        return {"n_items": len(self.items)}


def _state(module):
    return {k: v.copy() for k, v in module.state_dict().items()}


def test_same_seed_is_bit_identical():
    runs = []
    for _ in range(2):
        task = ToyTask()
        stats = Trainer(task, TrainSpec(epochs=3, seed=5)).fit()
        runs.append((stats.losses, _state(task.module)))
    assert runs[0][0] == runs[1][0]
    for key, value in runs[0][1].items():
        np.testing.assert_array_equal(runs[1][1][key], value)


def test_sanitize_spec_is_bit_identical_to_off():
    runs = []
    for sanitize in (False, True):
        task = ToyTask()
        stats = Trainer(task, TrainSpec(epochs=3, seed=5,
                                        sanitize=sanitize)).fit()
        runs.append((stats.losses, _state(task.module)))
    assert runs[0][0] == runs[1][0]
    for key, value in runs[0][1].items():
        np.testing.assert_array_equal(runs[1][1][key], value)


def test_sanitize_spec_round_trips_through_dict():
    spec = TrainSpec(epochs=2, sanitize=True)
    restored = TrainSpec.from_dict(spec.to_dict())
    assert restored.sanitize is True
    # Checkpoints written before the field existed restore to the default.
    legacy = spec.to_dict()
    del legacy["sanitize"]
    assert TrainSpec.from_dict(legacy).sanitize is False


def test_spec_from_dict_drops_retired_fields():
    """Checkpoints written while TrainSpec still had warmup, a settable
    final LR fraction and early stopping restore to the same spec."""
    spec = TrainSpec(epochs=2, schedule="linear", gradient_clip=1.0)
    legacy = dict(spec.to_dict(), warmup_steps=0, final_lr_fraction=0.1,
                  early_stop_patience=None, early_stop_min_delta=0.0)
    assert TrainSpec.from_dict(legacy) == spec
    assert len(spec.to_dict()) == 12


def test_different_seed_differs():
    losses = []
    for seed in (0, 1):
        task = ToyTask()
        losses.append(Trainer(task, TrainSpec(epochs=2, seed=seed)).fit().losses)
    assert losses[0] != losses[1]


def test_linear_schedule_decays_learning_rate():
    task = ToyTask()
    spec = TrainSpec(epochs=4, learning_rate=1e-2, schedule="linear")
    stats = Trainer(task, spec).fit()
    assert stats.lrs[0] == pytest.approx(1e-2)
    assert all(a >= b for a, b in zip(stats.lrs, stats.lrs[1:]))
    assert stats.lrs[-1] < stats.lrs[0]
    assert min(stats.lrs) >= 0.1 * 1e-2 - 1e-12


def test_unknown_schedule_rejected():
    with pytest.raises(ValueError):
        TrainSpec(schedule="cosine")


def test_gradient_clipping_caps_applied_updates():
    clip = 1e-3
    task = ToyTask()
    stats = Trainer(task, TrainSpec(epochs=1, gradient_clip=clip)).fit()
    # grad_norms record the PRE-clip norm, so training telemetry stays honest.
    assert all(norm > 0 for norm in stats.grad_norms)
    unclipped = Trainer(ToyTask(), TrainSpec(epochs=1)).fit()
    assert stats.losses[0] == unclipped.losses[0]  # first forward identical
    assert stats.losses[-1] != unclipped.losses[-1]  # clipped updates diverge


def test_skip_vs_null_step_semantics():
    skipped = Trainer(ToyTask(skip_odd=True), TrainSpec(epochs=1, seed=3)).fit()
    nulled = Trainer(ToyTask(null_odd=True), TrainSpec(epochs=1, seed=3)).fit()
    # None from loss() drops the item entirely; StepOutput(loss=None) records
    # a zero-loss step without an update.
    assert skipped.steps == 3
    assert nulled.steps == 6
    assert nulled.losses.count(0.0) == 3
    assert nulled.extras["nulled"] == [1.0, 1.0, 1.0]
    assert skipped.epoch_losses == nulled.epoch_losses


def test_eval_hook_cadence_and_mode_restored():
    task = ToyTask()
    spec = TrainSpec(epochs=1, eval_every=2, eval_at_end=True)
    stats = Trainer(task, spec).fit()
    assert stats.eval_steps == [2, 4, 6, 6]
    assert stats.eval_values == [0.5] * 4
    # The hook runs in eval mode and the engine restores train mode after.
    assert task.eval_calls == [False] * 4
    assert task.module.training


def test_eval_metric_none_disables_probes():
    task = ToyTask()
    task.eval_value = None
    stats = Trainer(task, TrainSpec(epochs=1, eval_every=2,
                                    eval_at_end=True)).fit()
    assert stats.eval_steps == []
    assert stats.eval_values == []


def test_fit_epochs_argument_caps_additional_epochs():
    task = ToyTask()
    trainer = Trainer(task, TrainSpec(epochs=4, seed=2))
    first = trainer.fit(epochs=1)
    assert trainer.epochs_completed == 1
    assert len(first.epoch_losses) == 1
    rest = trainer.fit()
    assert trainer.epochs_completed == 4
    assert len(rest.epoch_losses) == 3


def test_journal_records_header_steps_and_probe(tmp_path):
    path = str(tmp_path / "run.jsonl")
    task = ToyTask()
    with RunJournal(path) as journal:
        Trainer(task, TrainSpec(epochs=1, eval_at_end=True),
                journal=journal).fit()
    events = read_journal(path)
    kinds = [event["event"] for event in events]
    assert kinds[0] == "header"
    assert kinds.count("step") == 6
    assert kinds[-1] == "probe"
    header = events[0]
    assert header["task"] == "toy"
    assert header["config"] == {"n_items": 6}
    assert header["spec"]["epochs"] == 1
    step = next(event for event in events if event["event"] == "step")
    for key in ("loss", "lr", "grad_norm", "seconds", "forward_seconds"):
        assert key in step


def test_subsample_items_is_seeded_and_order_preserving():
    items = list("abcdefgh")
    first = subsample_items(items, 4, seed=9)
    second = subsample_items(items, 4, seed=9)
    assert first == second
    assert len(first) == 4
    assert first == sorted(first, key=items.index)  # original relative order
    assert subsample_items(items, 4, seed=10) != first


def test_subsample_items_is_group_aware():
    groups = [["a"] * 3, ["b"] * 2, ["c"] * 4, ["d"]]
    chosen = subsample_items(groups, 5, seed=0, size_of=len)
    # Whole groups are kept until the instance budget is reached.
    total = sum(len(group) for group in chosen)
    assert total >= 5
    assert all(group in groups for group in chosen)


def test_subsample_items_no_cap_returns_everything():
    items = [1, 2, 3]
    assert subsample_items(items, None, seed=0) == items
    assert subsample_items(items, 10, seed=0) == items
    assert len(subsample_items(items, 0, seed=0)) == 1  # at least one item


def test_fit_attributes_spans_to_active_trace():
    """A fit() triggered inside a request trace records its train and eval
    spans into that trace — including eval probes that hop threads."""
    import threading

    from repro.obs import adopt_context, capture_context, start_trace

    class ThreadedEvalTask(ToyTask):
        """eval_metric runs on a worker thread, as a serving-triggered
        evaluation would; the handoff uses capture/adopt."""

        def eval_metric(self):
            snapshot = capture_context()
            result = {}

            def probe():
                with adopt_context(snapshot):
                    result["value"] = super(ThreadedEvalTask,
                                            self).eval_metric()

            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
            return result["value"]

    task = ThreadedEvalTask()
    with start_trace("serve/finetune_demo") as context:
        Trainer(task, TrainSpec(epochs=1, eval_at_end=True)).fit()
    names = [span.name for span in context.spans]
    assert "toy/train" in names
    assert "toy/eval" in names
    train_index = names.index("toy/train")
    assert context.spans[train_index].parent == -1
    assert context.spans[names.index("toy/eval")].parent >= -1
    # outside a trace the same run records nothing (no lingering context)
    task2 = ToyTask()
    Trainer(task2, TrainSpec(epochs=1, eval_at_end=True)).fit()
    assert [span.name for span in context.spans] == names
