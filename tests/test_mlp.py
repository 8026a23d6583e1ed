"""Network core: initialization, forward evaluation, exact backprop.

The gradient checks compare the analytic backward pass against central
finite differences that only ever call the forward pass.
"""

import numpy as np
import pytest

from helpers import (
    fd_input_gradient,
    fd_param_gradient,
    random_mlp,
    relative_error,
)
from secrl import ConfigurationError
from secrl.nn.mlp import (
    LINEAR,
    TANH,
    MlpParams,
    layer_views,
    mlp_backward,
    mlp_forward,
    mlp_init,
)
from secrl.seeding import derive_rng


def test_init_rejects_zero_weight_scale():
    rng = derive_rng(0, 0)
    with pytest.raises(ConfigurationError):
        mlp_init([3, 4, 2], 0.2, TANH, 0.0, 1e-2, rng)


def test_init_rejects_bad_layer_sizes():
    rng = derive_rng(0, 0)
    with pytest.raises(ConfigurationError):
        mlp_init([3], 0.2, TANH, 1e-3, 1e-2, rng)
    with pytest.raises(ConfigurationError):
        mlp_init([3, 0, 2], 0.2, TANH, 1e-3, 1e-2, rng)


def test_init_scale_factors_bound_magnitudes():
    # Base draw is within +-1/sqrt(fan_in); the scale factors multiply it.
    w_scale, b_scale = 8.5e-4, 2e-2
    params = mlp_init([10, 25, 3], 0.208, TANH, w_scale, b_scale, derive_rng(1, 0))
    for j, (w, b) in enumerate(zip(params.weights, params.biases)):
        fan_in = params.layer_sizes[j]
        assert np.max(np.abs(w)) <= w_scale / np.sqrt(fan_in) + 1e-15
        assert np.max(np.abs(b)) <= b_scale / np.sqrt(fan_in) + 1e-15
        assert np.max(np.abs(w)) > 0.0


def test_init_deterministic_per_seed():
    a = mlp_init([4, 8, 2], 0.2, TANH, 1e-3, 1e-2, derive_rng(42, 0))
    b = mlp_init([4, 8, 2], 0.2, TANH, 1e-3, 1e-2, derive_rng(42, 0))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)


def test_forward_zero_network_gives_zero():
    params = mlp_init([3, 5, 2], 0.3, TANH, 1.0, 1.0, derive_rng(0, 0))
    for w in params.weights:
        w[:] = 0.0
    for b in params.biases:
        b[:] = 0.0
    out, _ = mlp_forward(params, np.zeros(3))
    assert np.array_equal(out, np.zeros(2))


def test_forward_single_linear_layer_hand_value():
    params = MlpParams([1, 1], beta=0.2, output_activation=LINEAR)
    params.weights[0][...] = 2.0
    params.biases[0][...] = 1.0
    out, _ = mlp_forward(params, np.array([3.0]))
    assert out[0] == pytest.approx(7.0, abs=0.0)


def test_forward_tanh_output_strictly_inside_unit_box():
    rng = derive_rng(7, 0)
    params = random_mlp(rng, 2, 4, 3, TANH)
    for _ in range(50):
        out, _ = mlp_forward(params, rng.uniform(-5, 5, size=4))
        assert np.all(np.abs(out) < 1.0)


def test_forward_rejects_wrong_width():
    params = mlp_init([3, 4, 2], 0.2, TANH, 1e-3, 1e-2, derive_rng(0, 0))
    with pytest.raises(ConfigurationError):
        mlp_forward(params, np.zeros(4))


def test_forward_batch_matches_single():
    rng = derive_rng(9, 0)
    params = random_mlp(rng, 2, 5, 3, TANH)
    xs = rng.uniform(-1, 1, size=(6, 5))
    batch_out, _ = mlp_forward(params, xs)
    for i in range(6):
        single, _ = mlp_forward(params, xs[i])
        assert np.allclose(batch_out[i], single, rtol=0, atol=1e-15)


def test_backward_zero_cotangent_gives_zero_gradients():
    rng = derive_rng(3, 0)
    params = random_mlp(rng, 3, 4, 2, TANH)
    x = rng.uniform(-1, 1, size=4)
    _, cache = mlp_forward(params, x)
    grads, x_cot = mlp_backward(params, cache, np.zeros(2))
    assert np.all(grads == 0.0)
    assert np.all(x_cot == 0.0)


def test_backward_linear_regression_closed_form():
    # Single linear layer, squared loss L = (Wx + b - t)^2:
    # dL/dW = 2(Wx + b - t) x^T, dL/db = 2(Wx + b - t).
    w = np.array([[1.5, -0.5]])
    b = np.array([0.25])
    params = MlpParams([2, 1], beta=0.2, output_activation=LINEAR)
    params.weights[0][...] = w
    params.biases[0][...] = b
    x = np.array([0.7, -1.2])
    t = 2.0
    out, cache = mlp_forward(params, x)
    resid = out[0] - t
    grads, _ = mlp_backward(params, cache, np.array([2.0 * resid]))
    d_weights, d_biases = layer_views(grads, params.layer_sizes)
    assert np.allclose(d_weights[0], 2.0 * resid * x[None, :], rtol=1e-14)
    assert np.allclose(d_biases[0], [2.0 * resid], rtol=1e-14)


@pytest.mark.parametrize("output_activation", [TANH, LINEAR])
def test_gradients_match_finite_differences(output_activation):
    # 1-4 hidden layers, random shapes/inputs/cotangents; norm-wise
    # relative error against central differences below 1e-5.
    rng = derive_rng(2024, 0)
    for case in range(30):
        n_hidden = 1 + case % 4
        in_dim = int(rng.integers(2, 6))
        out_dim = int(rng.integers(1, 4))
        params = random_mlp(rng, n_hidden, in_dim, out_dim, output_activation)
        x = rng.uniform(-1.5, 1.5, size=in_dim)
        cot = rng.uniform(-1, 1, size=out_dim)

        _, cache = mlp_forward(params, x)
        grads, x_cot = mlp_backward(params, cache, cot)

        def scalar(p, x=x, cot=cot):
            out, _ = mlp_forward(p, x)
            return float(np.dot(cot, out))

        fd = fd_param_gradient(scalar, params)
        assert relative_error(grads, fd) < 1e-5
        fd_x = fd_input_gradient(params, x, cot)
        assert relative_error(x_cot, fd_x) < 1e-5


def test_backward_batch_sums_sample_gradients():
    rng = derive_rng(11, 0)
    params = random_mlp(rng, 2, 3, 2, LINEAR)
    xs = rng.uniform(-1, 1, size=(4, 3))
    cots = rng.uniform(-1, 1, size=(4, 2))
    _, cache = mlp_forward(params, xs)
    batch_grads, _ = mlp_backward(params, cache, cots)
    acc = None
    for i in range(4):
        _, c = mlp_forward(params, xs[i])
        g, _ = mlp_backward(params, c, cots[i])
        acc = g if acc is None else acc + g
    assert np.allclose(batch_grads, acc, rtol=1e-12)


def test_leaky_hidden_activation_applies_slope_on_negative_side():
    beta = 0.25
    params = MlpParams([1, 1, 1], beta=beta, output_activation=LINEAR)
    params.weights[0][...] = 1.0
    params.weights[1][...] = 1.0
    out_pos, _ = mlp_forward(params, np.array([2.0]))
    out_neg, _ = mlp_forward(params, np.array([-2.0]))
    assert out_pos[0] == pytest.approx(2.0)
    assert out_neg[0] == pytest.approx(-2.0 * beta)
