"""Dense feed-forward networks with exact reverse-mode gradients.

Hidden layers use the leaky rectifier y = max(beta*x, x); the output layer
is either tanh (policy networks, range (-1, 1)) or identity (value
networks).  Batches are row-major (batch, features).

A network's parameters, its gradients and its optimizer moments are each
one bare contiguous vector, laid out by ``layer_views``; the per-layer
weight and bias arrays are views into that vector.  ``DTYPE`` is read once,
where ``MlpParams`` allocates ``data``; gradients, moments and activations
take the dtype of ``params.data``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import ConfigurationError

TANH = "tanh"
LINEAR = "linear"

_OUTPUT_ACTIVATIONS = (TANH, LINEAR)

# Floating type of a new network's ``data``; everything else follows it.
DTYPE = np.float64


def layer_views(flat: np.ndarray, layer_sizes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (weights, biases) views into a flat parameter-layout vector.

    Layer j's weight, shape (layer_sizes[j+1], layer_sizes[j]) row-major,
    is followed by its bias, length layer_sizes[j+1]; layers follow in
    order.  This is the only place that knows the layout.
    """
    weights, biases = [], []
    at = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[at:at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(flat[at:at + fan_out])
        at += fan_out
    return weights, biases


class MlpParams:
    """Weights/biases of a dense network, stored in one flat vector ``data``.

    weights[j] has shape (layer_sizes[j+1], layer_sizes[j]); biases[j] has
    length layer_sizes[j+1].  Both are views into ``data``, so in-place
    writes through either side reach the other.  ``beta`` is the
    hidden-layer leaky slope (derivative at exactly 0 is defined as beta).
    """

    def __init__(self, layer_sizes: list[int], beta: float, output_activation: str = TANH):
        """An all-zero network; write values through ``weights``/``biases``
        or ``data``."""
        self.layer_sizes = list(layer_sizes)
        if len(self.layer_sizes) < 2 or any(s <= 0 for s in self.layer_sizes):
            raise ConfigurationError(f"bad layer sizes {self.layer_sizes}")
        self.beta = beta
        self.output_activation = output_activation
        n = sum((fan_in + 1) * fan_out
                for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        self.data = np.zeros(n, DTYPE)
        self.weights, self.biases = layer_views(self.data, self.layer_sizes)

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    def copy(self) -> "MlpParams":
        out = MlpParams(self.layer_sizes, self.beta, self.output_activation)
        out.data[:] = self.data
        return out

    def flat(self) -> np.ndarray:
        """A copy of all parameters (layout: ``layer_views``)."""
        return self.data.copy()

    def validate(self) -> None:
        if not 0 < self.beta <= 1:
            raise ConfigurationError(f"hidden slope beta must be in (0, 1], got {self.beta}")
        if self.output_activation not in _OUTPUT_ACTIVATIONS:
            raise ConfigurationError(f"unknown output activation {self.output_activation!r}")
        if not np.isfinite(self.data).all():
            raise ConfigurationError("non-finite network parameters")


@dataclass
class ForwardCache:
    """Pre-activations and layer inputs retained for the backward pass."""

    inputs: list[np.ndarray] = field(default_factory=list)   # input to each layer
    pre_acts: list[np.ndarray] = field(default_factory=list)  # z = x W^T + b
    output: np.ndarray | None = None


def mlp_init(
    layer_sizes: list[int],
    beta: float,
    output_activation: str,
    weight_scale: float,
    bias_scale: float,
    rng: np.random.Generator,
) -> MlpParams:
    """Initialize uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], then scale.

    The scale factors multiply the base draw, so they act as pure magnitude
    knobs on top of a standard fan-in initialization.
    """
    if weight_scale <= 0 or bias_scale <= 0:
        raise ConfigurationError(
            f"scale factors must be > 0, got weight {weight_scale}, bias {bias_scale}"
        )
    params = MlpParams(layer_sizes, float(beta), output_activation)
    for w, b in zip(params.weights, params.biases):
        bound = 1.0 / np.sqrt(w.shape[1])
        w[...] = weight_scale * rng.uniform(-bound, bound, size=w.shape)
        b[...] = bias_scale * rng.uniform(-bound, bound, size=b.shape)
    params.validate()
    return params


def _leaky_slope(z: np.ndarray, beta: float) -> np.ndarray:
    # 1 where z > 0, else beta: the mask's 1/0 against beta, as beta <= 1.
    # Derivative at exactly 0 is beta (kink convention, kept consistent
    # with the finite-difference tests which avoid the kink).
    return np.maximum(z > 0.0, beta)


def mlp_forward(params: MlpParams, x: np.ndarray,
                cache: bool = True) -> tuple[np.ndarray, ForwardCache | None]:
    """Evaluate the network; x is (features,) or (batch, features).

    With ``cache=False`` (inference: no backward pass follows) no
    ForwardCache is built and None stands in for it; the output is the
    same, bit for bit."""
    x = np.asarray(x, dtype=params.data.dtype)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != params.in_dim:
        raise ConfigurationError(
            f"input width {x.shape[1]} does not match network input {params.in_dim}"
        )
    last = len(params.weights) - 1
    kept = ForwardCache() if cache else None
    h = x
    for j, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T
        z += b
        if kept is not None:
            kept.inputs.append(h)
            kept.pre_acts.append(z)
        if j < last:
            # Leaky rectifier max(beta*z, z), into the new beta*z array.
            h = params.beta * z
            np.maximum(h, z, out=h)
        elif params.output_activation == TANH:
            h = np.tanh(z)
        else:
            h = z
    if kept is not None:
        kept.output = h
    out = h[0] if squeeze else h
    return out, kept


def mlp_backward(
    params: MlpParams, cache: ForwardCache, output_cotangent: np.ndarray,
    param_grads: bool = True, input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Exact reverse-mode gradients for a cached forward pass.

    Returns (parameter gradients, cotangent w.r.t. the network input); the
    gradients are a new flat vector in the layout and dtype of
    ``params.data``.  Batched cotangents are summed into the parameter
    gradients, matching d(sum of per-sample scalars)/d(params).  With ``param_grads=False`` the
    dW/db products are skipped and None stands in for the gradients; with
    ``input_grad=False`` the first layer's input-cotangent product is
    skipped and None stands in for the input cotangent.
    """
    g = np.asarray(output_cotangent, dtype=params.data.dtype)
    squeeze = g.ndim == 1
    if squeeze:
        g = g[None, :]
    if cache.output is None or g.shape != cache.output.shape:
        raise ConfigurationError("cotangent shape does not match cached forward pass")
    if params.output_activation == TANH:
        delta = g * (1.0 - cache.output ** 2)
    else:
        delta = g
    grads = None
    if param_grads:
        grads = np.zeros(params.data.shape, params.data.dtype)
        d_weights, d_biases = layer_views(grads, params.layer_sizes)
    for j in range(len(cache.inputs) - 1, -1, -1):
        if grads is not None:
            np.matmul(delta.T, cache.inputs[j], out=d_weights[j])
            np.sum(delta, axis=0, out=d_biases[j])
        if j == 0 and not input_grad:
            return grads, None
        delta = delta @ params.weights[j]
        if j > 0:
            delta *= _leaky_slope(cache.pre_acts[j - 1], params.beta)
    x_cot = delta[0] if squeeze else delta
    return grads, x_cot


def input_cotangent(params: MlpParams, cache: ForwardCache, output_cotangent: np.ndarray) -> np.ndarray:
    """Cotangent w.r.t. the input only (skips the dW/db products)."""
    return mlp_backward(params, cache, output_cotangent, param_grads=False)[1]
