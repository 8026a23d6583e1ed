"""Discrete-time Ornstein-Uhlenbeck exploration noise.

Per-channel recursion
    nu_k = nu_{k-1} + stiffness*(mean - nu_{k-1})*dt + diffusion*sqrt(dt)*N(0,1)
with dt the control sampling time in seconds.
"""

from __future__ import annotations

import numpy as np

from .. import ConfigurationError


class OuNoise:
    def __init__(
        self,
        dim: int,
        stiffness: float,
        diffusion: float,
        mean: float = 0.0,
        dt: float = 1e-4,
    ):
        if stiffness < 0 or diffusion < 0 or dt <= 0:
            raise ConfigurationError(
                f"invalid OU parameters stiffness={stiffness} diffusion={diffusion} dt={dt}"
            )
        self.dim = int(dim)
        self.stiffness = float(stiffness)
        self.diffusion = float(diffusion)
        self.mean = float(mean)
        self.dt = float(dt)
        self.value = np.zeros(self.dim)

    def reset(self, value: float | np.ndarray = 0.0) -> None:
        self.value = np.full(self.dim, 0.0) + value

    def step(self, rng: np.random.Generator) -> np.ndarray:
        drift = self.stiffness * (self.mean - self.value) * self.dt
        shock = self.diffusion * np.sqrt(self.dt) * rng.standard_normal(self.dim)
        self.value = self.value + drift + shock
        return self.value.copy()

    def state_dict(self) -> dict:
        return {"value": self.value.copy()}

    def load_state_dict(self, state: dict) -> None:
        self.value = np.asarray(state["value"], dtype=np.float64).copy()


def noisy_action(actor_output: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Superimpose noise, then clip each channel to [-1, 1]."""
    if actor_output.shape != noise.shape:
        raise ConfigurationError(
            f"noise shape {noise.shape} does not match action {actor_output.shape}"
        )
    return np.clip(actor_output + noise, -1.0, 1.0)
