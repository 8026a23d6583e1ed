"""Training loop: reproducibility, episode bookkeeping, terminal storage,
update cadence, and exact checkpoint resume."""

import numpy as np
import pytest

from secrl.checkpoint import load_trainer_into, save_trainer
from secrl.config import parse_config
from secrl.ddpg.agent import AgentConfig
from secrl.ddpg.train import Trainer, TrainSettings
from secrl.envs.grid import GridEnv, GridParams
from secrl.envs.motor import MotorEnv, MotorParams
from secrl.sec import SecActionWrapper, SecRewardConfig


def tiny_agent_config(obs_dim, action_dim, **kw):
    defaults = dict(
        actor_hidden=[8], critic_hidden=[16], batch_size=16,
        buffer_capacity=2000, weight_scale=1e-2, bias_scale=1e-2,
        lr=1e-3, lr_final=1e-3, lr_decay_start=0, lr_decay_end=1,
    )
    defaults.update(kw)
    return AgentConfig(obs_dim=obs_dim, action_dim=action_dim, **defaults)


def make_sec_grid_trainer(seed=5, steps=300, episode_steps=120, **agent_kw) -> Trainer:
    env = GridEnv(GridParams(), gamma=0.946, seed=seed)
    cfg = SecRewardConfig(1.48, 1.13, steps // 4, steps // 2, steps, 0.946)
    wrapped = SecActionWrapper(env, 0.31, 0.66, cfg)
    acfg = tiny_agent_config(wrapped.obs_dim, wrapped.action_dim, **agent_kw)
    settings = TrainSettings(total_steps=steps, episode_steps=episode_steps)
    return Trainer(wrapped, acfg, settings, seed)


def test_zero_steps_returns_initialized_agent_and_empty_curve():
    env = MotorEnv(MotorParams(), seed=1)
    wrapped = SecActionWrapper(env)
    acfg = tiny_agent_config(wrapped.obs_dim, wrapped.action_dim)
    result = Trainer(wrapped, acfg, TrainSettings(total_steps=0), seed=1).run()
    assert result.curve == []
    assert result.agent.actor.layer_sizes[0] == wrapped.obs_dim


def test_curve_covers_every_step():
    trainer = make_sec_grid_trainer(steps=300, episode_steps=120)
    result = trainer.run()
    assert sum(r.steps for r in result.curve) == 300
    assert [r.episode for r in result.curve] == list(range(len(result.curve)))


def test_episode_truncation_stores_zero_terminal():
    # Updates disabled (batch larger than the run): the near-zero initial
    # policy never violates limits, so every stored terminal must be 0 even
    # though episodes truncate at the step cap.
    trainer = make_sec_grid_trainer(steps=250, episode_steps=100, batch_size=512)
    result = trainer.run()
    assert len(result.curve) >= 2
    assert trainer.buffer._term[: len(trainer.buffer)].sum() == 0.0


def test_limit_violation_stores_terminal_one():
    # Swamp the raw actor output with a huge constant noise mean so the
    # applied action saturates and the motor current limit trips.
    env = MotorEnv(MotorParams(), seed=9, terminate_on_violation=True)
    wrapped = SecActionWrapper(env)
    acfg = tiny_agent_config(wrapped.obs_dim, wrapped.action_dim)
    settings = TrainSettings(total_steps=80, episode_steps=500,
                             noise_stiffness=0.0, noise_diffusion=0.0)
    trainer = Trainer(wrapped, acfg, settings, seed=9)
    trainer.noise.reset(1.0)  # constant +1 noise on both channels
    result = trainer.run()
    stored_terms = trainer.buffer._term[: len(trainer.buffer)]
    assert stored_terms.sum() >= 1.0
    assert any(e["kind"] == "limit_violation" for e in result.events)


def test_updates_happen_on_training_frequency():
    trainer = make_sec_grid_trainer(steps=100, episode_steps=500,
                                    batch_size=16, train_freq=4)
    before = trainer.agent.actor.flat()
    trainer.run()
    # Buffer reaches 16 at step 16, so updates land on steps 16, 20, ..., 100.
    assert trainer.agent.actor_opt.step == (100 - 16) // 4 + 1
    assert not np.array_equal(trainer.agent.actor.flat(), before)


def test_no_updates_until_one_batch_stored():
    trainer = make_sec_grid_trainer(steps=30, episode_steps=500, batch_size=64)
    before = trainer.agent.actor.flat()
    trainer.run()
    assert trainer.agent.actor_opt.step == 0
    assert np.array_equal(trainer.agent.actor.flat(), before)


def test_training_bit_deterministic_across_runs():
    r1 = make_sec_grid_trainer(seed=21, steps=400, episode_steps=150).run()
    r2 = make_sec_grid_trainer(seed=21, steps=400, episode_steps=150).run()
    assert [(a.episode, a.steps, a.mean_reward) for a in r1.curve] == \
           [(b.episode, b.steps, b.mean_reward) for b in r2.curve]
    assert np.array_equal(r1.agent.actor.flat(), r2.agent.actor.flat())
    assert np.array_equal(r1.agent.critic.flat(), r2.agent.critic.flat())


def test_different_seeds_diverge():
    r1 = make_sec_grid_trainer(seed=1, steps=200).run()
    r2 = make_sec_grid_trainer(seed=2, steps=200).run()
    assert not np.array_equal(r1.agent.actor.flat(), r2.agent.actor.flat())


def test_checkpoint_roundtrip_resumes_bit_exact(tmp_path):
    # Uninterrupted reference run.
    ref = make_sec_grid_trainer(seed=33, steps=260, episode_steps=90)
    ref_result = ref.run()

    # Same run stopped at 130 steps, frozen, thawed into a fresh trainer.
    head = make_sec_grid_trainer(seed=33, steps=260, episode_steps=90)
    head.settings.total_steps = 130
    head.run()
    save_trainer(tmp_path / "ck.npz", head)

    tail = make_sec_grid_trainer(seed=33, steps=260, episode_steps=90)
    load_trainer_into(tmp_path / "ck.npz", tail)
    assert tail.step == 130
    tail_result = tail.run()

    assert np.array_equal(tail.agent.actor.flat(), ref.agent.actor.flat())
    assert np.array_equal(tail.agent.critic.flat(), ref.agent.critic.flat())
    assert np.array_equal(tail.agent.critic_target.flat(), ref.agent.critic_target.flat())
    assert [(r.episode, r.steps, r.mean_reward) for r in tail_result.curve] == \
           [(r.episode, r.steps, r.mean_reward) for r in ref_result.curve]


def test_sec_wrapper_penalties_enter_training_reward():
    # With penalties active the combined reward is strictly below the task
    # reward whenever the raw action is nonzero.
    env = GridEnv(GridParams(noise_v=0.0, noise_i=0.0), gamma=0.946, seed=3)
    cfg = SecRewardConfig(1.48, 1.13, 100, 100, 200, 0.946)
    wrapped = SecActionWrapper(env, 0.31, 0.66, cfg)
    wrapped.reset(seed=3)
    _, r, _, info = wrapped.step(np.array([0.4, 0.0, 0.0, 0.2, 0.0, 0.0]))
    # Penalties are negative, so the combined reward sits strictly below
    # the normalized task reward.
    assert r < info["task_reward"] / (1 + 1.48 + 1.13)


def test_passthrough_wrapper_preserves_task_reward():
    env = MotorEnv(MotorParams(), seed=4)
    wrapped = SecActionWrapper(env)
    wrapped.reset(seed=4)
    _, r, _, info = wrapped.step(np.array([0.1, -0.1]))
    assert r == info["task_reward"]
