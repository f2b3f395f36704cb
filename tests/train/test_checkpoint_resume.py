"""Save → resume → continue must equal an uninterrupted run, bit for bit."""

import numpy as np
import pytest

from repro.train import TrainSpec, Trainer

from tests.train.test_engine import ToyTask, _state


def test_resume_matches_uninterrupted_run(tmp_path):
    directory = str(tmp_path / "state")
    spec = TrainSpec(epochs=4, seed=11, schedule="linear", gradient_clip=5.0)

    uninterrupted_task = ToyTask()
    uninterrupted = Trainer(uninterrupted_task, spec)
    straight_stats = uninterrupted.fit()

    interrupted_task = ToyTask()
    interrupted = Trainer(interrupted_task, spec)
    first_stats = interrupted.fit(epochs=2)
    assert interrupted.epochs_completed == 2
    interrupted.save(directory)

    resumed_task = ToyTask()  # rebuilt identically, fresh weights
    resumed = Trainer.restore(directory, resumed_task)
    assert resumed.epochs_completed == 2
    rest_stats = resumed.fit()
    assert resumed.epochs_completed == 4

    assert first_stats.losses + rest_stats.losses == straight_stats.losses
    final = _state(uninterrupted_task.module)
    for key, value in _state(resumed_task.module).items():
        np.testing.assert_array_equal(value, final[key])


def test_restore_validates_task_name(tmp_path):
    directory = str(tmp_path / "state")
    trainer = Trainer(ToyTask(), TrainSpec(epochs=1))
    trainer.fit()
    trainer.save(directory)

    other = ToyTask()
    other.name = "not-toy"
    with pytest.raises(ValueError, match="not-toy"):
        Trainer.restore(directory, other)


def test_restore_spec_override_extends_training(tmp_path):
    directory = str(tmp_path / "state")
    trainer = Trainer(ToyTask(), TrainSpec(epochs=1, seed=4))
    trainer.fit()
    trainer.save(directory)

    task = ToyTask()
    resumed = Trainer.restore(directory, task,
                              spec=TrainSpec(epochs=3, seed=4))
    stats = resumed.fit()
    assert resumed.epochs_completed == 3
    assert len(stats.epoch_losses) == 2


def test_checkpoint_round_trips_optimizer_moments(tmp_path):
    directory = str(tmp_path / "state")
    trainer = Trainer(ToyTask(), TrainSpec(epochs=2, seed=1))
    trainer.fit()
    trainer.save(directory)

    resumed = Trainer.restore(directory, ToyTask())
    original = trainer.optimizer
    restored = resumed.optimizer
    assert restored.step_count == original.step_count
    for a, b in zip(original._m, restored._m):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(original._v, restored._v):
        np.testing.assert_array_equal(a, b)
    assert resumed.rng.bit_generator.state == trainer.rng.bit_generator.state
