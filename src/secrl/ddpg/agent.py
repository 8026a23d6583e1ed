"""Actor-critic networks, their update rules, and target tracking."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import ConfigurationError, TrainingFault
from ..nn.mlp import (
    LINEAR,
    TANH,
    MlpParams,
    input_cotangent,
    mlp_backward,
    mlp_forward,
    mlp_init,
)
from ..nn.optim import OptimizerState, make_optimizer, optimizer_step
from .schedule import LinearSchedule


@dataclass
class AgentConfig:
    """Everything needed to build and update one agent."""

    obs_dim: int
    action_dim: int                 # raw actor output width (2m when augmented)
    actor_hidden: list[int] = field(default_factory=lambda: [25, 25])
    critic_hidden: list[int] = field(default_factory=lambda: [295, 295, 295, 295])
    beta_actor: float = 0.208
    beta_critic: float = 6.79e-3
    gamma: float = 0.946
    tau: float = 2.61e-3
    batch_size: int = 261
    train_freq: int = 2
    buffer_capacity: int = 200_000
    optimizer: str = "adam"
    weight_scale: float = 8.5e-4
    bias_scale: float = 2e-2
    lr: float = 3.75e-4
    lr_final: float = 3.13e-4
    lr_decay_start: int = 55_000
    lr_decay_end: int = 64_800

    def __post_init__(self):
        if not 0 <= self.gamma < 1:
            raise ConfigurationError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0 <= self.tau <= 1:
            raise ConfigurationError(f"tau must be in [0, 1], got {self.tau}")
        if self.batch_size < 1 or self.train_freq < 1 or self.buffer_capacity < 1:
            raise ConfigurationError("batch_size, train_freq, buffer_capacity must be >= 1")

    def lr_schedule(self) -> LinearSchedule:
        return LinearSchedule(self.lr, self.lr_final, self.lr_decay_start, self.lr_decay_end)


class DdpgAgent:
    """Online and target actor/critic plus their optimizer states."""

    def __init__(self, config: AgentConfig, rng_init: np.random.Generator):
        self.config = config
        actor_sizes = [config.obs_dim, *config.actor_hidden, config.action_dim]
        critic_sizes = [config.obs_dim + config.action_dim, *config.critic_hidden, 1]
        # The tuned scale factors shrink the initial actor only; the critic
        # keeps the plain fan-in initialization.
        self.actor = mlp_init(
            actor_sizes, config.beta_actor, TANH,
            config.weight_scale, config.bias_scale, rng_init,
        )
        self.critic = mlp_init(
            critic_sizes, config.beta_critic, LINEAR, 1.0, 1.0, rng_init,
        )
        # Targets start as exact copies of the online networks.
        self.actor_target = self.actor.copy()
        self.critic_target = self.critic.copy()
        self.actor_opt: OptimizerState = make_optimizer(config.optimizer, self.actor)
        self.critic_opt: OptimizerState = make_optimizer(config.optimizer, self.critic)

    def act(self, obs: np.ndarray) -> np.ndarray:
        out, _ = mlp_forward(self.actor, obs, cache=False)
        return out


def soft_update(target: MlpParams, online: MlpParams, tau: float) -> None:
    """target <- (1 - tau) * target + tau * online, in place."""
    if not 0 <= tau <= 1:
        raise ConfigurationError(f"tau must be in [0, 1], got {tau}")
    if target.layer_sizes != online.layer_sizes:
        raise ConfigurationError("target/online shape mismatch")
    target.data *= 1.0 - tau
    target.data += tau * online.data


def critic_targets(agent: DdpgAgent, rewards, next_obs, terminals) -> np.ndarray:
    """Bootstrapped targets r + gamma * (1 - t) * q_target(y', mu_target(y'))."""
    a_next, _ = mlp_forward(agent.actor_target, next_obs)
    q_next, _ = mlp_forward(agent.critic_target, np.hstack([next_obs, a_next]))
    return rewards + agent.config.gamma * (1.0 - terminals) * q_next[:, 0]


def critic_update(agent: DdpgAgent, batch, lr: float) -> float:
    """One minimization step on the mean squared Bellman error; returns it."""
    obs, act, rew, next_obs, term = batch
    y = critic_targets(agent, rew, next_obs, term)
    q, cache = mlp_forward(agent.critic, np.hstack([obs, act]))
    resid = q[:, 0] - y
    loss = float(np.mean(resid ** 2))
    if not np.isfinite(loss):
        raise TrainingFault(f"critic loss non-finite ({loss}); resid range "
                            f"[{np.nanmin(resid)}, {np.nanmax(resid)}]")
    cot = (2.0 / len(resid)) * resid[:, None]
    grads, _ = mlp_backward(agent.critic, cache, cot, input_grad=False)
    optimizer_step(agent.critic_opt, agent.critic, grads, lr)
    return loss


def actor_update(agent: DdpgAgent, batch, lr: float) -> float:
    """One ascent step on the mean critic value of on-policy actions.

    The chain rule runs through the critic with its parameters frozen; only
    the actor is stepped.
    """
    obs = batch[0]
    a, actor_cache = mlp_forward(agent.actor, obs)
    q, critic_cache = mlp_forward(agent.critic, np.hstack([obs, a]))
    fitness = float(np.mean(q))
    if not np.isfinite(fitness):
        raise TrainingFault(f"actor fitness non-finite ({fitness})")
    n = q.shape[0]
    x_cot = input_cotangent(agent.critic, critic_cache, np.full((n, 1), 1.0 / n))
    dq_du = x_cot[:, agent.config.obs_dim:]
    # Optimizers minimize, so feed the negated fitness gradient.
    grads, _ = mlp_backward(agent.actor, actor_cache, -dq_du, input_grad=False)
    optimizer_step(agent.actor_opt, agent.actor, grads, lr)
    return fitness
