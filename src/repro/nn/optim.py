"""Optimizers and learning-rate schedules.

The paper pre-trains with Adam and a linearly decreasing learning rate
(Section 4.4, "Pre-training details"); both are implemented here, along with
plain SGD (used by baseline models) and global-norm gradient clipping.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.nn.tensor import Parameter


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.
    """
    parameters = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in parameters)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for parameter in parameters:
            parameter.grad = parameter.grad * scale
    return total


class ConstantSchedule:
    """Learning rate that never changes."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def __call__(self, step: int) -> float:
        return self.learning_rate


class LinearDecaySchedule:
    """Linear decay from ``learning_rate`` to ``final_fraction * learning_rate``.

    Matches the paper's "linearly decreasing learning rate" over a known
    number of total steps.
    """

    def __init__(self, learning_rate: float, total_steps: int,
                 final_fraction: float = 0.0):
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        self.learning_rate = learning_rate
        self.total_steps = total_steps
        self.final_fraction = final_fraction

    def __call__(self, step: int) -> float:
        progress = min(1.0, step / self.total_steps)
        fraction = 1.0 - (1.0 - self.final_fraction) * progress
        return self.learning_rate * max(self.final_fraction, fraction)


class Adam:
    """Adam optimizer (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, parameters: Sequence[Parameter], learning_rate: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0, schedule=None):
        self.parameters: List[Parameter] = list(parameters)
        self.learning_rate = learning_rate
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.schedule = schedule if schedule is not None else ConstantSchedule(learning_rate)
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        lr = self.schedule(self.step_count)
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for i, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * grad**2
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            parameter.data = parameter.data - lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.grad = None


class SGD:
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Sequence[Parameter], learning_rate: float = 0.01,
                 momentum: float = 0.0, schedule=None):
        self.parameters: List[Parameter] = list(parameters)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.schedule = schedule if schedule is not None else ConstantSchedule(learning_rate)
        self.step_count = 0
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        lr = self.schedule(self.step_count)
        self.step_count += 1
        for i, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            if self.momentum:
                self._velocity[i] = self.momentum * self._velocity[i] + parameter.grad
                update = self._velocity[i]
            else:
                update = parameter.grad
            parameter.data = parameter.data - lr * update

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.grad = None
