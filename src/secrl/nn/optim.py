"""First-order optimizers over MlpParams (Adam default; SGD/RMSprop variants).

All optimizers minimize: they step along the negative gradient.  Callers
that maximize pass the negated gradient.  Each moment, like the gradient,
is one bare flat vector in the parameter layout and of the parameters'
dtype, so every step is a handful of whole-vector operations;
``mlp.layer_views`` cuts it into per-layer weights and biases.

Each state class declares its ``KIND`` (the ``agent.optimizer`` name), its
``MOMENTS`` (flat vector fields) and its ``SCALARS`` (the fields a
checkpoint stores beside the moments); ``OPTIMIZERS`` maps kinds to classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .. import ConfigurationError, TrainingFault
from .mlp import MlpParams


@dataclass
class _MomentState:
    """Moment vectors in the layout of ``layer_sizes``."""

    layer_sizes: list[int]

    KIND: ClassVar[str]
    MOMENTS: ClassVar[tuple[str, ...]]
    SCALARS: ClassVar[tuple[str, ...]]

    @classmethod
    def for_params(cls, params: MlpParams, **scalars):
        """Zero moments shaped and typed like ``params``.  ``np.zeros``
        rather than ``np.zeros_like``, which writes every page up front."""
        zeros = [np.zeros(params.data.shape, params.data.dtype) for _ in cls.MOMENTS]
        return cls(params.layer_sizes, *zeros, **scalars)


@dataclass
class AdamState(_MomentState):
    """Bias-corrected Adam moments (defaults 0.9 / 0.999 / 1e-8)."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    KIND = "adam"
    MOMENTS = ("m", "v")
    SCALARS = ("step", "beta1", "beta2", "eps")

    def update(self, p: np.ndarray, g: np.ndarray, lr: float) -> None:
        # In-place with one scratch vector; this runs twice per training
        # tick over every parameter, so temporaries matter.
        self.step += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.step
        c2 = 1.0 - b2 ** self.step
        m, v = self.m, self.v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        scratch = np.square(g)
        scratch *= 1.0 - b2
        v += scratch
        np.divide(v, c2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += self.eps
        np.divide(m, scratch, out=scratch)
        scratch *= lr / c1
        p -= scratch


@dataclass
class SgdState(_MomentState):
    """Plain gradient descent; optional classical momentum."""

    vel: np.ndarray
    momentum: float = 0.0

    KIND = "sgd"
    MOMENTS = ("vel",)
    SCALARS = ("momentum",)

    def update(self, p: np.ndarray, g: np.ndarray, lr: float) -> None:
        if self.momentum > 0.0:
            self.vel *= self.momentum
            self.vel += g
            p -= lr * self.vel
        else:
            p -= lr * g


@dataclass
class RmsPropState(_MomentState):
    """RMSprop running mean of squared gradients."""

    sq: np.ndarray
    rho: float = 0.99
    eps: float = 1e-8

    KIND = "rmsprop"
    MOMENTS = ("sq",)
    SCALARS = ("rho", "eps")

    def update(self, p: np.ndarray, g: np.ndarray, lr: float) -> None:
        self.sq *= self.rho
        self.sq += (1.0 - self.rho) * g * g
        p -= lr * g / (np.sqrt(self.sq) + self.eps)


OptimizerState = AdamState | SgdState | RmsPropState
OPTIMIZERS = {cls.KIND: cls for cls in (AdamState, SgdState, RmsPropState)}


def make_optimizer(kind: str, params: MlpParams) -> OptimizerState:
    kind = kind.lower()
    if kind not in OPTIMIZERS:
        raise ConfigurationError(f"unknown optimizer {kind!r}")
    return OPTIMIZERS[kind].for_params(params)


def optimizer_step(state: OptimizerState, params: MlpParams, grads: np.ndarray, lr: float) -> None:
    """One in-place minimization step along the flat gradient ``grads``
    (layout and dtype of ``params.data``); lr = 0 leaves params untouched."""
    if lr < 0:
        raise ConfigurationError(f"learning rate must be >= 0, got {lr}")
    if not np.isfinite(grads).all():
        raise TrainingFault("non-finite gradient passed to optimizer")
    state.update(params.data, grads, lr)
