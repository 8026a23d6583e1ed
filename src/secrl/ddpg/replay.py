"""Ring replay buffer over fixed-width transition records."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import ConfigurationError


@dataclass
class Experience:
    """One stored transition <obs, raw action, reward, next obs, terminal>.

    The action is the raw (pre-integrator) network output with exploration
    noise, already clipped to [-1, 1] per channel.
    """

    obs: np.ndarray
    action: np.ndarray
    reward: float
    next_obs: np.ndarray
    terminal: bool


class ReplayBuffer:
    """Preallocated ring of transitions; overwrites the oldest when full.

    Sampling is uniform with replacement over the filled region, driven by
    the generator handed to sample() so the caller owns determinism.
    """

    def __init__(self, capacity: int, obs_dim: int, action_dim: int):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.obs_dim = int(obs_dim)
        self.action_dim = int(action_dim)
        self._obs = np.zeros((capacity, obs_dim))
        self._act = np.zeros((capacity, action_dim))
        self._rew = np.zeros(capacity)
        self._next = np.zeros((capacity, obs_dim))
        self._term = np.zeros(capacity)
        self._cursor = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def push(self, exp: Experience) -> None:
        if exp.obs.shape != (self.obs_dim,) or exp.next_obs.shape != (self.obs_dim,):
            raise ConfigurationError(
                f"observation width {exp.obs.shape} does not match buffer ({self.obs_dim},)"
            )
        if exp.action.shape != (self.action_dim,):
            raise ConfigurationError(
                f"action width {exp.action.shape} does not match buffer ({self.action_dim},)"
            )
        i = self._cursor
        self._obs[i] = exp.obs
        self._act[i] = exp.action
        self._rew[i] = exp.reward
        self._next[i] = exp.next_obs
        self._term[i] = 1.0 if exp.terminal else 0.0
        self._cursor = (i + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)

    def contents(self) -> list[Experience]:
        """Stored transitions in insertion order (oldest first)."""
        if self._count < self.capacity:
            order = range(self._count)
        else:
            order = [(self._cursor + j) % self.capacity for j in range(self.capacity)]
        return [
            Experience(
                obs=self._obs[i].copy(),
                action=self._act[i].copy(),
                reward=float(self._rew[i]),
                next_obs=self._next[i].copy(),
                terminal=bool(self._term[i]),
            )
            for i in order
        ]

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform-with-replacement batch as stacked arrays."""
        if batch_size < 1:
            raise ConfigurationError(f"batch size must be >= 1, got {batch_size}")
        if self._count < batch_size:
            raise ConfigurationError(
                f"buffer holds {self._count} < batch size {batch_size}"
            )
        idx = rng.integers(0, self._count, size=batch_size)
        return (
            self._obs[idx],
            self._act[idx],
            self._rew[idx],
            self._next[idx],
            self._term[idx],
        )

    def state_dict(self) -> dict:
        """The filled rows as views into the ring, not copies: they stay
        valid only until the next push, so write or copy them first."""
        n = self._count
        return {
            "obs": self._obs[:n],
            "act": self._act[:n],
            "rew": self._rew[:n],
            "next": self._next[:n],
            "term": self._term[:n],
            "cursor": self._cursor,
            "count": self._count,
        }

    def load_state_dict(self, state: dict) -> None:
        n = int(state["count"])
        self._obs[:n] = state["obs"]
        self._act[:n] = state["act"]
        self._rew[:n] = state["rew"]
        self._next[:n] = state["next"]
        self._term[:n] = state["term"]
        self._cursor = int(state["cursor"])
        self._count = n
