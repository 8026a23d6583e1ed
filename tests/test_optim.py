"""Optimizer behavior against hand-evaluated and scalar-simulation oracles."""

import numpy as np
import pytest

from helpers import random_mlp
from secrl import TrainingFault
from secrl.nn.mlp import LINEAR, layer_views
from secrl.nn.optim import AdamState, make_optimizer, optimizer_step
from secrl.seeding import derive_rng


def _grads_like(params, fill):
    return np.full(params.data.shape, fill, params.data.dtype)


def test_zero_learning_rate_leaves_params_unchanged():
    rng = derive_rng(5, 0)
    params = random_mlp(rng, 2, 3, 2, LINEAR)
    before = params.flat()
    state = AdamState.for_params(params)
    optimizer_step(state, params, _grads_like(params, 0.37), lr=0.0)
    assert np.array_equal(params.flat(), before)


def test_adam_first_step_has_learning_rate_magnitude():
    # With zero moments, step 1 is -lr * g / (|g| + eps) per component.
    rng = derive_rng(6, 0)
    params = random_mlp(rng, 1, 3, 2, LINEAR)
    before = params.flat()
    state = AdamState.for_params(params)
    g = 0.83
    optimizer_step(state, params, _grads_like(params, g), lr=1e-3)
    delta = params.flat() - before
    expected = -1e-3 * g / (abs(g) + state.eps)
    assert np.allclose(delta, expected, rtol=1e-9)


def test_adam_matches_scalar_reference_recursion():
    # Independent scalar implementation of bias-corrected Adam.
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    g_seq = [0.5, -0.2, 0.9, 0.9, -1.4, 0.3]
    p_ref, m, v = 1.0, 0.0, 0.0
    for k, g in enumerate(g_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p_ref -= lr * (m / (1 - b1 ** k)) / (np.sqrt(v / (1 - b2 ** k)) + eps)

    rng = derive_rng(7, 0)
    params = random_mlp(rng, 1, 2, 1, LINEAR)
    params.weights[0][0, 0] = 1.0
    state = AdamState.for_params(params)
    for g in g_seq:
        grads = _grads_like(params, 0.0)
        layer_views(grads, params.layer_sizes)[0][0][0, 0] = g
        optimizer_step(state, params, grads, lr=lr)
    assert params.weights[0][0, 0] == pytest.approx(p_ref, rel=1e-12)


def test_adam_constant_gradient_decreases_monotonically():
    rng = derive_rng(8, 0)
    params = random_mlp(rng, 1, 2, 1, LINEAR)
    state = AdamState.for_params(params)
    history = [params.weights[0][0, 0]]
    for _ in range(60):
        optimizer_step(state, params, _grads_like(params, 1.0), lr=1e-3)
        history.append(params.weights[0][0, 0])
    diffs = np.diff(history)
    assert np.all(diffs < 0.0)


def test_non_finite_gradient_raises_training_fault():
    rng = derive_rng(9, 0)
    params = random_mlp(rng, 1, 2, 1, LINEAR)
    grads = _grads_like(params, 1.0)
    layer_views(grads, params.layer_sizes)[0][0][0, 0] = np.nan
    with pytest.raises(TrainingFault):
        optimizer_step(AdamState.for_params(params), params, grads, lr=1e-3)


def test_sgd_step_is_plain_descent():
    rng = derive_rng(10, 0)
    params = random_mlp(rng, 1, 2, 2, LINEAR)
    before = params.flat()
    state = make_optimizer("sgd", params)
    optimizer_step(state, params, _grads_like(params, 2.0), lr=0.1)
    assert np.allclose(params.flat(), before - 0.2, rtol=1e-14)


def test_rmsprop_first_step_direction_and_scale():
    # Step 1: sq = (1-rho) g^2, so delta = -lr * g / (sqrt((1-rho)) |g| + eps).
    rng = derive_rng(11, 0)
    params = random_mlp(rng, 1, 2, 1, LINEAR)
    before = params.flat()
    state = make_optimizer("rmsprop", params)
    g = 0.4
    optimizer_step(state, params, _grads_like(params, g), lr=1e-2)
    expected = -1e-2 * g / (np.sqrt((1 - state.rho) * g * g) + state.eps)
    assert np.allclose(params.flat() - before, expected, rtol=1e-9)


def test_unknown_optimizer_rejected():
    from secrl import ConfigurationError

    rng = derive_rng(12, 0)
    params = random_mlp(rng, 1, 2, 1, LINEAR)
    with pytest.raises(ConfigurationError):
        make_optimizer("adagrad", params)
