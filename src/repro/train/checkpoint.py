"""Training-state checkpointing: save → resume → continue, exactly.

A training checkpoint is a directory with three files:

``model.npz``
    the task module's parameter state dict (via :mod:`repro.nn.serialization`)
``optimizer.npz``
    Adam first/second moments, keyed ``m.<param>`` / ``v.<param>``
``trainer.json``
    optimizer step count, completed epochs, the :class:`TrainSpec`, and the
    exact NumPy bit-generator state of the shuffle/masking RNG

Restoring reinstates all of it, so a run that is interrupted after epoch
``k`` and resumed produces bit-identical parameters to an uninterrupted run
— the property ``tests/train/test_checkpoint_resume.py`` locks in.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

from repro.nn.serialization import load_state_dict, save_state_dict
from repro.obs import RunJournal

TRAINER_STATE_FILE = "trainer.json"
MODEL_FILE = "model.npz"
OPTIMIZER_FILE = "optimizer.npz"


def _state_to_json(state: dict) -> dict:
    """A bit-generator state dict with big ints stringified for JSON safety."""
    return json.loads(json.dumps(state, default=str))


def _rng_state_to_json(rng: np.random.Generator) -> dict:
    """The bit-generator state with big ints stringified for JSON safety."""
    return _state_to_json(rng.bit_generator.state)


def _rng_state_from_json(payload: dict) -> dict:
    def revive(node):
        if isinstance(node, dict):
            return {key: revive(value) for key, value in node.items()}
        if isinstance(node, str) and node.lstrip("-").isdigit():
            return int(node)
        return node

    return revive(payload)


def save_training_state(directory: str, trainer) -> None:
    """Write the full resumable state of ``trainer`` to ``directory``."""
    os.makedirs(directory, exist_ok=True)
    module = trainer.task.module
    save_state_dict(module.state_dict(), os.path.join(directory, MODEL_FILE))

    optimizer = trainer.optimizer
    names = [name for name, _ in module.named_parameters()]
    if len(names) != len(optimizer.parameters):
        raise ValueError(
            "optimizer does not track exactly the module's parameters "
            f"({len(optimizer.parameters)} vs {len(names)}); checkpointing "
            "requires the engine-owned optimizer")
    moments = {}
    for name, m, v in zip(names, optimizer._m, optimizer._v):
        moments[f"m.{name}"] = m
        moments[f"v.{name}"] = v
    save_state_dict(moments, os.path.join(directory, OPTIMIZER_FILE))

    state = {
        "task": trainer.task.name,
        "spec": trainer.spec.to_dict(),
        "step_count": optimizer.step_count,
        "step_index": trainer.step_index,
        "epochs_completed": trainer.epochs_completed,
        "rng_state": _rng_state_to_json(trainer.rng),
        # Stream position: which chunk of the in-flight epoch comes next,
        # plus the RNG snapshot that (re)derives this epoch's chunk plan.
        # Together they make mid-epoch resume exact for streaming datasets.
        "chunks_consumed": trainer.chunks_consumed,
        "epoch_start_rng_state": (
            _state_to_json(trainer._epoch_start_rng_state)
            if trainer._epoch_start_rng_state is not None else None),
        "epoch_losses_partial": list(trainer._epoch_losses),
        "stream_fingerprint": trainer.task.stream_fingerprint(),
    }
    with open(os.path.join(directory, TRAINER_STATE_FILE), "w") as handle:
        json.dump(state, handle, indent=2)


def load_training_state(directory: str, task,
                        spec=None,
                        journal: Optional[RunJournal] = None):
    """Rebuild a :class:`repro.train.Trainer` from :func:`save_training_state`.

    ``task`` must be constructed identically to the saved run (same seeds and
    datasets); the checkpoint then overwrites its module parameters and the
    engine state.  Pass ``spec`` to override the persisted one (e.g. to raise
    ``epochs`` before continuing).
    """
    from repro.train.engine import Trainer, TrainSpec

    with open(os.path.join(directory, TRAINER_STATE_FILE)) as handle:
        state = json.load(handle)
    if state["task"] != task.name:
        raise ValueError(f"checkpoint was written by task {state['task']!r}, "
                         f"got {task.name!r}")
    if spec is None:
        spec = TrainSpec.from_dict(state["spec"])

    trainer = Trainer(task, spec, journal=journal)
    task.module.load_state_dict(
        load_state_dict(os.path.join(directory, MODEL_FILE)))

    optimizer = trainer.optimizer
    moments = load_state_dict(os.path.join(directory, OPTIMIZER_FILE))
    names = [name for name, _ in task.module.named_parameters()]
    for i, name in enumerate(names):
        optimizer._m[i] = moments[f"m.{name}"]
        optimizer._v[i] = moments[f"v.{name}"]
    optimizer.step_count = state["step_count"]

    trainer.step_index = state["step_index"]
    trainer.epochs_completed = state["epochs_completed"]
    trainer.rng.bit_generator.state = _rng_state_from_json(state["rng_state"])

    saved_fingerprint = state.get("stream_fingerprint")
    if saved_fingerprint is not None:
        current = task.stream_fingerprint()
        if current != saved_fingerprint:
            raise ValueError(
                "checkpointed stream position belongs to a different corpus "
                f"(saved fingerprint {saved_fingerprint}, task has {current}); "
                "rebuild the task over the original dataset")
    trainer.chunks_consumed = state.get("chunks_consumed", 0)
    epoch_start = state.get("epoch_start_rng_state")
    trainer._epoch_start_rng_state = (
        _rng_state_from_json(epoch_start) if epoch_start is not None else None)
    trainer._epoch_losses = list(state.get("epoch_losses_partial", []))
    return trainer
