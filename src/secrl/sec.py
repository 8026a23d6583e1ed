"""Integral-action augmentation of a deterministic actor.

The actor emits paired channels [u_P ; u_I] (2m outputs for an m-channel
plant).  The I half feeds a discrete integrator whose state is added to the
P half, mimicking the memory of a PI controller:

    zeta_k = t_i * sum_{i<=k} u_{i,I}
    u_k    = clip(u_{k,P} + zeta_k, -1, 1)

Whenever clipping engages, the integrator state is bled off with a
back-calculation term scaled by t_aw (anti-windup).  A scheduled action
penalty on both channel groups plus a normalizing reward combination keeps
the discounted return inside [-1, 0].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ConfigurationError
from .ddpg.schedule import LinearSchedule


@dataclass
class SecState:
    """Integrator internal state plus its weighting/anti-windup scales."""

    zeta: np.ndarray
    t_i: float
    t_aw: float

    @classmethod
    def fresh(cls, m: int, t_i: float, t_aw: float) -> "SecState":
        if t_i <= 0 or t_aw <= 0:
            raise ConfigurationError(f"t_i and t_aw must be > 0, got {t_i}, {t_aw}")
        return cls(zeta=np.zeros(m), t_i=float(t_i), t_aw=float(t_aw))

    def reset(self) -> None:
        self.zeta = np.zeros_like(self.zeta)


def actor_output_width(m: int, use_sec: bool = True) -> int:
    """Actor output width: one extra integral channel per plant channel."""
    if m < 1:
        raise ConfigurationError(f"action dimension must be >= 1, got {m}")
    return 2 * m if use_sec else m


def sec_apply(u_raw: np.ndarray, state: SecState) -> tuple[np.ndarray, SecState]:
    """Integrate the I channels, add to the P channels, clip, anti-windup.

    u_raw is the clipped noisy network output [u_P ; u_I] of length 2m.
    Returns the applied m-channel action and the updated state (new object;
    the input state is not mutated).
    """
    m = state.zeta.shape[0]
    u_raw = np.asarray(u_raw, dtype=np.float64)
    if u_raw.shape != (2 * m,):
        raise ConfigurationError(f"raw action has shape {u_raw.shape}, expected ({2*m},)")
    u_p, u_i = u_raw[:m], u_raw[m:]
    zeta = state.zeta + state.t_i * u_i
    u_unclipped = u_p + zeta
    # np.clip to [-1, 1], without its Python wrapper.
    u = np.minimum(np.maximum(u_unclipped, -1.0), 1.0)
    # Back-calculation only affects channels that actually clipped.
    zeta += state.t_aw * (u - u_unclipped)
    return u, SecState(zeta=zeta, t_i=state.t_i, t_aw=state.t_aw)


@dataclass
class SecRewardConfig:
    """Scheduled penalty scales for the P and I channel groups.

    Each kappa stays at its initial value until its decay-start step, then
    ramps linearly to zero at the training horizon.
    """

    kappa_p: float
    kappa_i: float
    kappa_p_decay_start: int
    kappa_i_decay_start: int
    total_steps: int
    gamma: float
    _sched_p: LinearSchedule = field(init=False, repr=False)
    _sched_i: LinearSchedule = field(init=False, repr=False)

    def __post_init__(self):
        if self.kappa_p < 0 or self.kappa_i < 0:
            raise ConfigurationError("kappa scales must be >= 0")
        if not (0 <= self.gamma < 1):
            raise ConfigurationError(f"gamma must be in [0, 1), got {self.gamma}")
        for k0 in (self.kappa_p_decay_start, self.kappa_i_decay_start):
            if not 0 <= k0 <= self.total_steps:
                raise ConfigurationError(
                    f"decay start {k0} outside [0, {self.total_steps}]"
                )
        self._sched_p = LinearSchedule(self.kappa_p, 0.0, self.kappa_p_decay_start, self.total_steps)
        self._sched_i = LinearSchedule(self.kappa_i, 0.0, self.kappa_i_decay_start, self.total_steps)

    def kappa_at(self, k: int, channel: str) -> float:
        """Penalty scale at global training step k, channel 'p' or 'i'."""
        if channel == "p":
            return self._sched_p.at(k)
        if channel == "i":
            return self._sched_i.at(k)
        raise ConfigurationError(f"channel must be 'p' or 'i', got {channel!r}")


def sec_penalty(u_channel: np.ndarray, kappa_k: float, gamma: float, m: int) -> float:
    """Action-magnitude penalty -kappa * (1-gamma)/m * sum sqrt(|u_i|)."""
    if kappa_k < 0:
        raise ConfigurationError(f"kappa must be >= 0, got {kappa_k}")
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    u = np.asarray(u_channel, dtype=np.float64)
    return float(kappa_k * (1.0 - gamma) / m * -np.sum(np.sqrt(np.abs(u))))


def combine_reward(r_task: float, r_p: float, r_i: float, kappa_p_k: float, kappa_i_k: float) -> float:
    """Normalize so the combined per-step reward stays within [-(1-gamma), 0]."""
    return (r_task + r_p + r_i) / (1.0 + kappa_p_k + kappa_i_k)


class SecActionWrapper:
    """Environment adapter that puts the integrator in the action path: the
    one action path for plain and augmented agents, in training and in
    evaluation.

    With t_i and t_aw the actor's 2m outputs [u_P ; u_I] drive an m-channel
    plant through sec_apply, and the penalty terms of reward_cfg, when
    given, are folded into the reward.  Without them (plain agents and
    classical controllers) the m-channel action is applied as is and the
    task reward is passed through.

    The wrapped env's step() must accept (u, raw_p, raw_i); the raw blocks
    feed the past-action features of the next observation.  A global step
    counter (never reset between episodes) drives the kappa schedules.
    """

    def __init__(self, env, t_i: float | None = None, t_aw: float | None = None,
                 reward_cfg: SecRewardConfig | None = None):
        self.env = env
        self.m = env.action_dim
        self.obs_dim = env.obs_dim
        self.state = None if t_i is None and t_aw is None else SecState.fresh(self.m, t_i, t_aw)
        self.action_dim = self.m if self.state is None else 2 * self.m
        self.reward_cfg = reward_cfg
        self.global_step = 0

    def reset(self, seed: int | None = None) -> np.ndarray:
        # Fresh episodes must not inherit integrator wind-up.
        if self.state is not None:
            self.state.reset()
        return self.env.reset(seed=seed)

    def step(self, u_raw: np.ndarray, scored: bool = True, observed: bool = True):
        """``scored`` and ``observed`` pass through to the env (see
        envs.base); with ``scored=False`` the reward is None too.  The
        info arrays are shared with the wrapper and the env: callers must
        not write into them."""
        if self.state is None:
            u = np.asarray(u_raw, dtype=np.float64)
            obs, r_task, terminal, info = self.env.step(
                u, raw_p=u_raw, raw_i=None, scored=scored, observed=observed)
        else:
            u, self.state = sec_apply(u_raw, self.state)
            obs, r_task, terminal, info = self.env.step(
                u, raw_p=u_raw[: self.m], raw_i=u_raw[self.m:], scored=scored, observed=observed)
        k = self.global_step
        if self.reward_cfg is not None and scored:
            cfg = self.reward_cfg
            kp = cfg.kappa_at(k, "p")
            ki = cfg.kappa_at(k, "i")
            r_p = sec_penalty(u_raw[: self.m], kp, cfg.gamma, self.m)
            r_i = sec_penalty(u_raw[self.m:], ki, cfg.gamma, self.m)
            reward = combine_reward(r_task, r_p, r_i, kp, ki)
        else:
            reward = r_task
        self.global_step += 1
        info["applied_action"] = u
        if self.state is not None:
            # sec_apply made a new zeta; the wrapper never writes into it.
            info["integrator_state"] = self.state.zeta
        return obs, reward, terminal, info

    def state_dict(self) -> dict:
        if self.state is None:
            return {"global_step": self.global_step}
        return {"zeta": self.state.zeta.copy(), "global_step": self.global_step}

    def load_state_dict(self, state: dict) -> None:
        if self.state is not None:
            self.state.zeta = np.asarray(state["zeta"], dtype=np.float64).copy()
        self.global_step = int(state["global_step"])
