"""First-order optimizers over MlpParams (Adam default; SGD/RMSprop variants).

All optimizers minimize: they step along the negative gradient.  Callers
that maximize pass the negated gradient.  Each moment is one flat vector in
the parameter layout, so every step is a handful of whole-vector operations;
the per-layer ``*_w``/``*_b`` lists are views for inspection and
checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import ConfigurationError, TrainingFault
from .mlp import DTYPE, MlpParams, ParamGrads, layer_views


@dataclass
class AdamState:
    """Bias-corrected Adam moments (defaults 0.9 / 0.999 / 1e-8)."""

    layer_sizes: list[int]
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        self.m_w, self.m_b = layer_views(self.m, self.layer_sizes)
        self.v_w, self.v_b = layer_views(self.v, self.layer_sizes)

    @classmethod
    def for_params(cls, params: MlpParams, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        n = params.data.size
        return cls(params.layer_sizes, np.zeros(n, DTYPE), np.zeros(n, DTYPE),
                   beta1=beta1, beta2=beta2, eps=eps)


@dataclass
class SgdState:
    """Plain gradient descent; optional classical momentum."""

    layer_sizes: list[int]
    vel: np.ndarray
    momentum: float = 0.0

    def __post_init__(self):
        self.vel_w, self.vel_b = layer_views(self.vel, self.layer_sizes)

    @classmethod
    def for_params(cls, params: MlpParams, momentum: float = 0.0) -> "SgdState":
        return cls(params.layer_sizes, np.zeros(params.data.size, DTYPE), momentum=momentum)


@dataclass
class RmsPropState:
    """RMSprop running mean of squared gradients."""

    layer_sizes: list[int]
    sq: np.ndarray
    rho: float = 0.99
    eps: float = 1e-8

    def __post_init__(self):
        self.sq_w, self.sq_b = layer_views(self.sq, self.layer_sizes)

    @classmethod
    def for_params(cls, params: MlpParams, rho: float = 0.99, eps: float = 1e-8) -> "RmsPropState":
        return cls(params.layer_sizes, np.zeros(params.data.size, DTYPE), rho=rho, eps=eps)


OptimizerState = AdamState | SgdState | RmsPropState


def make_optimizer(kind: str, params: MlpParams) -> OptimizerState:
    kind = kind.lower()
    if kind == "adam":
        return AdamState.for_params(params)
    if kind == "sgd":
        return SgdState.for_params(params)
    if kind == "rmsprop":
        return RmsPropState.for_params(params)
    raise ConfigurationError(f"unknown optimizer {kind!r}")


def optimizer_step(state: OptimizerState, params: MlpParams, grads: ParamGrads, lr: float) -> None:
    """One in-place minimization step; lr = 0 leaves params untouched."""
    if lr < 0:
        raise ConfigurationError(f"learning rate must be >= 0, got {lr}")
    if not grads.is_finite():
        raise TrainingFault("non-finite gradient passed to optimizer")
    p, g = params.data, grads.data
    if isinstance(state, AdamState):
        _adam_step(state, p, g, lr)
    elif isinstance(state, SgdState):
        if state.momentum > 0.0:
            state.vel *= state.momentum
            state.vel += g
            p -= lr * state.vel
        else:
            p -= lr * g
    elif isinstance(state, RmsPropState):
        state.sq *= state.rho
        state.sq += (1.0 - state.rho) * g * g
        p -= lr * g / (np.sqrt(state.sq) + state.eps)
    else:  # pragma: no cover
        raise ConfigurationError(f"unknown optimizer state {type(state)!r}")


def _adam_step(state: AdamState, p: np.ndarray, g: np.ndarray, lr: float) -> None:
    # In-place with one scratch vector; this runs twice per training tick
    # over every parameter, so temporaries matter.
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    scratch = np.square(g)
    scratch *= 1.0 - b2
    v += scratch
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += state.eps
    np.divide(m, scratch, out=scratch)
    scratch *= lr / c1
    p -= scratch
