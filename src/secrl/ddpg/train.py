"""Off-policy training loop: act with noise, store, update on a cadence.

The loop is single-threaded and bit-reproducible from its seed: weight
init, exploration, replay sampling, and all environment randomness come
from separate derived streams, so toggling the action augmentation never
shifts plant randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import TrainingFault
from ..seeding import STREAM_EXPLORATION, STREAM_INIT, STREAM_REPLAY, derive_rng
from .agent import AgentConfig, DdpgAgent, actor_update, critic_update, soft_update
from .noise import OuNoise, noisy_action
from .replay import Experience, ReplayBuffer


@dataclass
class EpisodeRecord:
    episode: int
    steps: int
    mean_reward: float


@dataclass
class TrainResult:
    agent: DdpgAgent
    curve: list[EpisodeRecord]
    events: list[dict]


@dataclass
class TrainSettings:
    total_steps: int
    episode_steps: int = 2811
    noise_stiffness: float = 31.58
    noise_diffusion: float = 2.6e-2
    noise_dt: float = 1e-4


class Trainer:
    """Holds every piece of mutable training state so a run can be frozen
    to disk and resumed bit-exactly.  `env` is a SecActionWrapper; a
    snapshot holds its state and that of the plant it wraps."""

    def __init__(self, env, agent_config: AgentConfig, settings: TrainSettings, seed: int):
        self.env = env
        self.settings = settings
        self.seed = int(seed)
        self.agent = DdpgAgent(agent_config, derive_rng(seed, STREAM_INIT))
        self.buffer = ReplayBuffer(agent_config.buffer_capacity, env.obs_dim, env.action_dim)
        self.noise = OuNoise(
            env.action_dim, settings.noise_stiffness, settings.noise_diffusion,
            mean=0.0, dt=settings.noise_dt,
        )
        self.rng_expl = derive_rng(seed, STREAM_EXPLORATION)
        self.rng_replay = derive_rng(seed, STREAM_REPLAY)
        self.lr_schedule = agent_config.lr_schedule()
        self.step = 0
        self.episode = 0
        self.episode_steps = 0
        self.episode_reward_sum = 0.0
        self.curve: list[EpisodeRecord] = []
        self.events: list[dict] = []
        self.obs = env.reset(seed=seed)

    def _finish_episode(self) -> None:
        mean_r = self.episode_reward_sum / max(self.episode_steps, 1)
        self.curve.append(EpisodeRecord(self.episode, self.episode_steps, mean_r))
        self.episode += 1
        self.episode_steps = 0
        self.episode_reward_sum = 0.0
        self.obs = self.env.reset()
        self.noise.reset()

    def run(self, until_step: int | None = None) -> TrainResult:
        """Train up to `until_step` (capped at `total_steps`).  A run cut
        into several calls is bit-identical to one call, so callers log
        progress and write snapshots between calls."""
        cfg = self.agent.config
        s = self.settings
        stop_at = s.total_steps if until_step is None else min(until_step, s.total_steps)
        while self.step < stop_at:
            a_det = self.agent.act(self.obs)
            nu = self.noise.step(self.rng_expl)
            a_raw = noisy_action(a_det, nu)
            try:
                obs2, reward, terminal, info = self.env.step(a_raw)
            except Exception as exc:
                self.events.append({"step": self.step, "kind": "environment_fault", "detail": str(exc)})
                raise
            self.buffer.push(Experience(self.obs, a_raw, reward, obs2, terminal))
            self.episode_reward_sum += reward
            self.episode_steps += 1
            self.step += 1
            truncated = self.episode_steps >= s.episode_steps
            if terminal:
                self.events.append({
                    "step": self.step, "kind": "limit_violation", "episode": self.episode,
                })
            if terminal or truncated:
                self._finish_episode()
            else:
                self.obs = obs2
            if self.step % cfg.train_freq == 0 and len(self.buffer) >= cfg.batch_size:
                lr = self.lr_schedule.at(self.step)
                batch = self.buffer.sample(cfg.batch_size, self.rng_replay)
                try:
                    critic_update(self.agent, batch, lr)
                    actor_update(self.agent, batch, lr)
                except TrainingFault as exc:
                    self.events.append({"step": self.step, "kind": "training_fault", "detail": str(exc)})
                    raise
                soft_update(self.agent.critic_target, self.agent.critic, cfg.tau)
                soft_update(self.agent.actor_target, self.agent.actor, cfg.tau)
        # Close out a partial episode in the returned curve only; the
        # trainer keeps in-flight accumulators so a resumed run continues
        # the episode instead of double-counting it.
        result_curve = list(self.curve)
        if self.episode_steps > 0:
            mean_r = self.episode_reward_sum / self.episode_steps
            result_curve.append(EpisodeRecord(self.episode, self.episode_steps, mean_r))
        return TrainResult(agent=self.agent, curve=result_curve, events=self.events)

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot for checkpoints; its replay rows are views into the
        ring (see ReplayBuffer.state_dict), valid until the next step."""
        return {
            "seed": self.seed,
            "step": self.step,
            "episode": self.episode,
            "episode_steps": self.episode_steps,
            "episode_reward_sum": self.episode_reward_sum,
            "obs": np.asarray(self.obs).copy(),
            "curve": [(r.episode, r.steps, r.mean_reward) for r in self.curve],
            "events": list(self.events),
            "noise": self.noise.state_dict(),
            "rng_expl": self.rng_expl.bit_generator.state,
            "rng_replay": self.rng_replay.bit_generator.state,
            "buffer": self.buffer.state_dict(),
            "env": self.env.state_dict(),
            "inner_env": self.env.env.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a state_dict() snapshot, except for the replay ring:
        its "buffer" entry is ignored, as load_trainer_into reads the
        stored rows straight into the ring (ReplayBuffer.restore)."""
        self.seed = int(state["seed"])
        self.step = int(state["step"])
        self.episode = int(state["episode"])
        self.episode_steps = int(state["episode_steps"])
        self.episode_reward_sum = float(state["episode_reward_sum"])
        self.obs = np.asarray(state["obs"], dtype=np.float64).copy()
        self.curve = [EpisodeRecord(*row) for row in state["curve"]]
        self.events = list(state["events"])
        self.noise.load_state_dict(state["noise"])
        self.rng_expl.bit_generator.state = state["rng_expl"]
        self.rng_replay.bit_generator.state = state["rng_replay"]
        self.env.load_state_dict(state["env"])
        self.env.env.load_state_dict(state["inner_env"])
