"""Tests for optimizers, schedules, clipping and loss functions."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    ConstantSchedule,
    LinearDecaySchedule,
    SGD,
    Tensor,
    Parameter,
    binary_cross_entropy_logits,
    clip_grad_norm,
    cross_entropy_logits,
    masked_cross_entropy,
)
from repro.nn.serialization import load_state_dict, save_state_dict


def test_sgd_step():
    p = Parameter(np.array([1.0, 2.0]))
    p.grad = np.array([0.5, -0.5])
    SGD([p], learning_rate=0.1).step()
    np.testing.assert_allclose(p.data, [0.95, 2.05])


def test_sgd_momentum_accumulates():
    p = Parameter(np.array([0.0]))
    opt = SGD([p], learning_rate=1.0, momentum=0.9)
    p.grad = np.array([1.0])
    opt.step()
    np.testing.assert_allclose(p.data, [-1.0])
    p.grad = np.array([1.0])
    opt.step()
    # velocity = 0.9*1 + 1 = 1.9
    np.testing.assert_allclose(p.data, [-2.9])


def test_adam_minimizes_quadratic():
    p = Parameter(np.array([5.0]))
    opt = Adam([p], learning_rate=0.3)
    for _ in range(200):
        loss = (p * p).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
    assert abs(p.data[0]) < 1e-2


def test_adam_skips_parameters_without_grad():
    p1 = Parameter(np.array([1.0]))
    p2 = Parameter(np.array([1.0]))
    p1.grad = np.array([1.0])
    Adam([p1, p2], learning_rate=0.1).step()
    assert p1.data[0] != 1.0
    assert p2.data[0] == 1.0


def test_linear_decay_schedule():
    schedule = LinearDecaySchedule(1.0, total_steps=10)
    assert schedule(0) == 1.0
    assert schedule(5) == pytest.approx(0.5)
    assert schedule(10) == pytest.approx(0.0)
    assert schedule(100) == pytest.approx(0.0)


def test_linear_decay_with_floor():
    schedule = LinearDecaySchedule(1.0, total_steps=10, final_fraction=0.1)
    assert schedule(0) == 1.0
    assert schedule(5) == pytest.approx(0.55)
    assert schedule(10) == pytest.approx(0.1)
    assert schedule(100) == pytest.approx(0.1)


def test_constant_schedule():
    assert ConstantSchedule(0.3)(999) == 0.3


def test_clip_grad_norm():
    p1 = Parameter(np.zeros(3))
    p2 = Parameter(np.zeros(4))
    p1.grad = np.full(3, 3.0)
    p2.grad = np.full(4, 4.0)
    total = clip_grad_norm([p1, p2], max_norm=1.0)
    expected_norm = np.sqrt(3 * 9 + 4 * 16)
    assert total == pytest.approx(expected_norm)
    new_norm = np.sqrt((p1.grad**2).sum() + (p2.grad**2).sum())
    assert new_norm == pytest.approx(1.0)


def test_clip_grad_norm_noop_below_threshold():
    p = Parameter(np.zeros(2))
    p.grad = np.array([0.1, 0.1])
    clip_grad_norm([p], max_norm=10.0)
    np.testing.assert_allclose(p.grad, [0.1, 0.1])


def test_cross_entropy_matches_manual():
    logits = Tensor(np.array([[2.0, 0.0, -1.0], [0.0, 1.0, 0.0]]), requires_grad=True)
    targets = np.array([0, 1])
    loss = cross_entropy_logits(logits, targets)
    manual = -np.mean([
        2.0 - np.log(np.exp(2.0) + 1 + np.exp(-1.0)),
        1.0 - np.log(1 + np.e + 1),
    ])
    assert loss.item() == pytest.approx(manual)
    loss.backward()
    # Gradient rows sum to zero (softmax minus one-hot, averaged).
    np.testing.assert_allclose(logits.grad.sum(axis=1), 0.0, atol=1e-12)


def test_cross_entropy_ignore_index():
    logits = Tensor(np.zeros((3, 4)), requires_grad=True)
    targets = np.array([1, -100, 2])
    loss = cross_entropy_logits(logits, targets, ignore_index=-100)
    assert loss.item() == pytest.approx(np.log(4))
    with pytest.raises(ValueError):
        cross_entropy_logits(Tensor(np.zeros((1, 4))), np.array([-100]), ignore_index=-100)


def test_binary_cross_entropy_matches_manual():
    logits = Tensor(np.array([[0.5, -1.0]]), requires_grad=True)
    targets = np.array([[1.0, 0.0]])
    loss = binary_cross_entropy_logits(logits, targets)
    x = np.array([0.5, -1.0])
    y = np.array([1.0, 0.0])
    manual = np.mean(np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x))))
    assert loss.item() == pytest.approx(manual)
    loss.backward()
    sigmoid = 1 / (1 + np.exp(-x))
    np.testing.assert_allclose(logits.grad, (sigmoid - y).reshape(1, 2) / 2, atol=1e-9)


def test_binary_cross_entropy_extreme_logits_stable():
    logits = Tensor(np.array([[100.0, -100.0]]))
    targets = np.array([[1.0, 0.0]])
    loss = binary_cross_entropy_logits(logits, targets)
    assert np.isfinite(loss.item())
    assert loss.item() < 1e-6


def test_binary_cross_entropy_shape_check():
    with pytest.raises(ValueError):
        binary_cross_entropy_logits(Tensor(np.zeros((2, 2))), np.zeros((2, 3)))


def test_masked_cross_entropy_uses_only_masked():
    logits = Tensor(np.random.default_rng(0).normal(size=(2, 3, 5)), requires_grad=True)
    targets = np.array([[1, 2, 3], [0, 4, 1]])
    mask = np.array([[True, False, False], [False, True, False]])
    loss = masked_cross_entropy(logits, targets, mask)
    loss.backward()
    # Unmasked positions receive zero gradient.
    assert np.allclose(logits.grad[0, 1], 0)
    assert np.allclose(logits.grad[0, 2], 0)
    assert np.allclose(logits.grad[1, 0], 0)
    assert not np.allclose(logits.grad[0, 0], 0)


def test_masked_cross_entropy_empty_mask_raises():
    with pytest.raises(ValueError):
        masked_cross_entropy(Tensor(np.zeros((1, 2, 3))), np.zeros((1, 2)), np.zeros((1, 2), dtype=bool))


def test_state_dict_serialization_roundtrip(tmp_path):
    state = {"layer.weight": np.arange(6.0).reshape(2, 3), "layer.bias": np.ones(3)}
    path = str(tmp_path / "ckpt.npz")
    save_state_dict(state, path)
    loaded = load_state_dict(path)
    assert set(loaded) == set(state)
    for key in state:
        np.testing.assert_allclose(loaded[key], state[key])
