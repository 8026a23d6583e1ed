"""The flat parameter layout: per-layer views alias one vector, and the
whole-vector optimizer, target-tracking and gradient code is byte-equal to
per-layer reference loops."""

import numpy as np
import pytest

from secrl.ddpg.agent import soft_update
from secrl.nn.mlp import (
    LINEAR,
    TANH,
    input_cotangent,
    layer_views,
    mlp_backward,
    mlp_forward,
    mlp_init,
)
from secrl.nn.optim import AdamState, RmsPropState, SgdState, optimizer_step
from secrl.seeding import derive_rng

SIZES = [7, 13, 5, 3]


def _net(seed, sizes=SIZES, output_activation=LINEAR):
    return mlp_init(sizes, 0.2, output_activation, 1.0, 1.0, derive_rng(seed, 0))


def _per_layer(weights, biases):
    """Independent per-layer copies, ordered w0, b0, w1, b1, ..."""
    return [a.copy() for pair in zip(weights, biases) for a in pair]


def _same_bytes(arrays, refs):
    return len(arrays) == len(refs) and all(
        a.shape == r.shape and a.tobytes() == r.tobytes() for a, r in zip(arrays, refs))


def _ref_adam(ps, gs, ms, vs, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    c1 = 1.0 - b1 ** step
    c2 = 1.0 - b2 ** step
    for p, g, m, v in zip(ps, gs, ms, vs):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        scratch = np.square(g)
        scratch *= 1.0 - b2
        v += scratch
        np.divide(v, c2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += eps
        np.divide(m, scratch, out=scratch)
        scratch *= lr / c1
        p -= scratch


def _ref_sgd(ps, gs, vels, lr, mu):
    for p, g, vel in zip(ps, gs, vels):
        vel *= mu
        vel += g
        p -= lr * vel


def _ref_rmsprop(ps, gs, sqs, lr, rho=0.99, eps=1e-8):
    for p, g, sq in zip(ps, gs, sqs):
        sq *= rho
        sq += (1.0 - rho) * g * g
        p -= lr * g / (np.sqrt(sq) + eps)


@pytest.mark.parametrize("kind", ["adam", "sgd-momentum", "rmsprop"])
def test_optimizer_step_byte_equal_to_per_layer_reference(kind):
    params = _net(1)
    if kind == "adam":
        state = AdamState.for_params(params)
        moments = [*layer_views(state.m, state.layer_sizes),
                   *layer_views(state.v, state.layer_sizes)]
    elif kind == "sgd-momentum":
        state = SgdState.for_params(params, momentum=0.9)
        moments = [*layer_views(state.vel, state.layer_sizes)]
    else:
        state = RmsPropState.for_params(params)
        moments = [*layer_views(state.sq, state.layer_sizes)]
    ref_p = _per_layer(params.weights, params.biases)
    ref_m = [_per_layer(w, b) for w, b in zip(moments[::2], moments[1::2])]
    rng = derive_rng(2, 0)
    for k in range(1, 21):
        d_w = [rng.normal(size=w.shape) for w in params.weights]
        d_b = [rng.normal(size=b.shape) for b in params.biases]
        lr = 1e-2 * (1 + k % 3)
        grads = np.zeros_like(params.data)
        g_w, g_b = layer_views(grads, params.layer_sizes)
        for view, value in zip([*g_w, *g_b], [*d_w, *d_b], strict=True):
            view[...] = value
        optimizer_step(state, params, grads, lr)
        ref_g = _per_layer(d_w, d_b)
        if kind == "adam":
            _ref_adam(ref_p, ref_g, ref_m[0], ref_m[1], k, lr)
        elif kind == "sgd-momentum":
            _ref_sgd(ref_p, ref_g, ref_m[0], lr, 0.9)
        else:
            _ref_rmsprop(ref_p, ref_g, ref_m[0], lr)
        assert _same_bytes(_per_layer(params.weights, params.biases), ref_p), k
        for (w, b), ref in zip(zip(moments[::2], moments[1::2]), ref_m):
            assert _same_bytes(_per_layer(w, b), ref), k


def test_soft_update_byte_equal_to_per_layer_reference():
    target, online = _net(3), _net(4)
    ref_t = _per_layer(target.weights, target.biases)
    ref_o = _per_layer(online.weights, online.biases)
    for tau in (2.61e-3, 0.3, 0.3, 1.0 / 3.0, 0.0, 1.0):
        soft_update(target, online, tau)
        for t, o in zip(ref_t, ref_o):
            t *= 1.0 - tau
            t += tau * o
        assert _same_bytes(_per_layer(target.weights, target.biases), ref_t), tau


@pytest.mark.parametrize("batch", [1, 64, 261])
@pytest.mark.parametrize("output_activation", [TANH, LINEAR])
def test_backward_byte_equal_to_per_layer_products(batch, output_activation):
    params = _net(5, [9, 17, 11, 4], output_activation)
    rng = derive_rng(6, 0)
    x = rng.uniform(-1.5, 1.5, size=(batch, 9))
    cot = rng.uniform(-1, 1, size=(batch, 4))
    _, cache = mlp_forward(params, x)
    grads, x_cot = mlp_backward(params, cache, cot)

    delta = cot * (1.0 - cache.output ** 2) if output_activation == TANH else cot
    ref = []
    for j in range(len(params.weights) - 1, -1, -1):
        ref[:0] = [delta.T @ cache.inputs[j], delta.sum(axis=0)]
        delta = delta @ params.weights[j]
        if j > 0:
            delta = delta * np.where(cache.pre_acts[j - 1] > 0.0, 1.0, params.beta)
    assert _same_bytes(_per_layer(*layer_views(grads, params.layer_sizes)), ref)
    assert x_cot.tobytes() == delta.tobytes()
    assert input_cotangent(params, cache, cot).tobytes() == delta.tobytes()
    skipped, x_only = mlp_backward(params, cache, cot, param_grads=False)
    assert skipped is None and x_only.tobytes() == delta.tobytes()


def _offsets(sizes):
    """(start, stop) of each weight and bias in the flat vector, computed
    here independently of the package's layout function."""
    spans, at = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bias_at = at + fan_in * fan_out
        spans.append(((at, bias_at), (bias_at, bias_at + fan_out)))
        at = bias_at + fan_out
    return spans, at


def test_views_alias_the_flat_vector_and_copies_are_independent():
    params = _net(7)
    state = AdamState.for_params(params)
    grads = np.ones_like(params.data)
    optimizer_step(state, params, grads, lr=1e-2)
    spans, total = _offsets(SIZES)
    flat = params.flat()
    m_weights, _ = layer_views(state.m, state.layer_sizes)
    assert flat.shape == (total,)
    for j, ((w0, w1), (b0, b1)) in enumerate(spans):
        assert np.array_equal(flat[w0:w1], params.weights[j].ravel())
        assert np.array_equal(flat[b0:b1], params.biases[j])
        assert np.array_equal(state.m.ravel()[w0:w1], m_weights[j].ravel())

    twin = params.copy()
    twin.weights[0][0, 0] += 1.0
    twin.biases[-1][:] = 5.0
    assert np.array_equal(params.flat(), flat)
    (w0, w1), _ = spans[1]
    params.weights[1][...] = 0.0
    assert np.all(params.data[w0:w1] == 0.0)
    assert np.array_equal(twin.data[w0:w1], flat[w0:w1]) and flat[w0:w1].any()
