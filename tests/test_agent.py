"""Learner update rules: Bellman targets, fitness ascent, target tracking."""

import numpy as np
import pytest

from helpers import fd_param_gradient, random_mlp, relative_error
from secrl import ConfigurationError
from secrl.ddpg.agent import (
    AgentConfig,
    DdpgAgent,
    actor_update,
    critic_targets,
    critic_update,
    soft_update,
)
from secrl.ddpg.schedule import LinearSchedule
from secrl.nn.mlp import LINEAR, MlpParams, mlp_forward
from secrl.seeding import derive_rng


def small_agent(obs_dim=3, action_dim=2, seed=0, **overrides) -> DdpgAgent:
    cfg = AgentConfig(
        obs_dim=obs_dim,
        action_dim=action_dim,
        actor_hidden=[6, 6],
        critic_hidden=[8, 8],
        batch_size=4,
        buffer_capacity=64,
        weight_scale=0.5,
        bias_scale=0.5,
        **overrides,
    )
    return DdpgAgent(cfg, derive_rng(seed, 0))


def random_batch(agent: DdpgAgent, n: int, seed=1):
    rng = derive_rng(seed, 0)
    obs = rng.uniform(-1, 1, size=(n, agent.config.obs_dim))
    act = rng.uniform(-1, 1, size=(n, agent.config.action_dim))
    rew = rng.uniform(-1, 0, size=n)
    nxt = rng.uniform(-1, 1, size=(n, agent.config.obs_dim))
    term = (rng.uniform(size=n) < 0.3).astype(float)
    return obs, act, rew, nxt, term


def constant_critic(obs_dim: int, action_dim: int, value: float) -> MlpParams:
    """Single linear layer with zero weights: q = value everywhere."""
    in_dim = obs_dim + action_dim
    critic = MlpParams([in_dim, 1], beta=0.01, output_activation=LINEAR)
    critic.biases[0][...] = value
    return critic


class TestSoftUpdate:
    def test_tau_one_copies_online(self):
        agent = small_agent()
        online = agent.actor
        target = agent.actor_target
        for w in target.weights:
            w += 0.5
        soft_update(target, online, 1.0)
        assert np.array_equal(target.flat(), online.flat())

    def test_tau_zero_keeps_target(self):
        agent = small_agent()
        before = agent.actor_target.flat()
        for w in agent.actor.weights:
            w += 1.0
        soft_update(agent.actor_target, agent.actor, 0.0)
        assert np.array_equal(agent.actor_target.flat(), before)

    def test_geometric_decay_with_frozen_online(self):
        # ||target - online|| after n updates is (1-tau)^n of the initial
        # distance, to machine precision.
        tau = 2.61e-3
        agent = small_agent(seed=3)
        target, online = agent.critic_target, agent.critic
        for w in target.weights:
            w += 0.8
        d0 = np.linalg.norm(target.flat() - online.flat())
        n = 50
        for _ in range(n):
            soft_update(target, online, tau)
        dn = np.linalg.norm(target.flat() - online.flat())
        assert dn == pytest.approx((1.0 - tau) ** n * d0, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        a = small_agent(obs_dim=3)
        b = small_agent(obs_dim=4)
        with pytest.raises(ConfigurationError):
            soft_update(a.actor_target, b.actor, 0.5)


class TestCriticUpdate:
    def test_terminal_masking_target_equals_reward(self):
        agent = small_agent(seed=5)
        obs, act, rew, nxt, _ = random_batch(agent, 8)
        term = np.ones(8)
        y = critic_targets(agent, rew, nxt, term)
        assert np.array_equal(y, rew)

    def test_exact_fit_gives_zero_loss_and_no_change(self):
        # gamma = 0 and a critic that already outputs r for every input.
        agent = small_agent(gamma=0.0, seed=6)
        agent.critic = constant_critic(3, 2, value=-0.25)
        from secrl.nn.optim import make_optimizer

        agent.critic_opt = make_optimizer("adam", agent.critic)
        obs, act, _, nxt, term = random_batch(agent, 8)
        rew = np.full(8, -0.25)
        before = agent.critic.flat()
        loss = critic_update(agent, (obs, act, rew, nxt, term), lr=1e-3)
        assert loss == 0.0
        assert np.array_equal(agent.critic.flat(), before)

    def test_single_sample_closed_form_residual(self):
        # Scalar linear critic q = w . [obs, act] + b; the loss equals the
        # squared Bellman residual computed by hand.
        agent = small_agent(obs_dim=1, action_dim=1, gamma=0.9, seed=7)
        w = np.array([[0.4, -0.3]])
        b = np.array([0.1])
        agent.critic = MlpParams([2, 1], 0.01, LINEAR)
        agent.critic.weights[0][...] = w
        agent.critic.biases[0][...] = b
        from secrl.nn.optim import make_optimizer

        agent.critic_opt = make_optimizer("adam", agent.critic)
        obs = np.array([[0.5]])
        act = np.array([[-0.2]])
        rew = np.array([-0.1])
        nxt = np.array([[0.3]])
        term = np.array([0.0])
        a_next, _ = mlp_forward(agent.actor_target, nxt)
        q_next, _ = mlp_forward(agent.critic_target, np.hstack([nxt, a_next]))
        y = rew[0] + 0.9 * q_next[0, 0]
        q = w[0, 0] * obs[0, 0] + w[0, 1] * act[0, 0] + b[0]
        expected_loss = (q - y) ** 2
        loss = critic_update(agent, (obs, act, rew, nxt, term), lr=0.0)
        assert loss == pytest.approx(expected_loss, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        # d(mean squared Bellman error)/d(critic params) against central
        # differences with targets held fixed.
        agent = small_agent(seed=8)
        agent.critic = random_mlp(derive_rng(8, 1), 2, 5, 1, LINEAR)
        obs, act, rew, nxt, term = random_batch(agent, 6)
        y = critic_targets(agent, rew, nxt, term)
        from secrl.nn.mlp import mlp_backward

        x = np.hstack([obs, act])
        q, cache = mlp_forward(agent.critic, x)
        resid = q[:, 0] - y
        cot = (2.0 / len(resid)) * resid[:, None]
        grads, _ = mlp_backward(agent.critic, cache, cot)

        def loss_fn(p):
            qq, _ = mlp_forward(p, x)
            return float(np.mean((qq[:, 0] - y) ** 2))

        fd = fd_param_gradient(loss_fn, agent.critic)
        assert relative_error(grads, fd) < 1e-5

    def test_targets_untouched_by_update(self):
        agent = small_agent(seed=9)
        t_actor = agent.actor_target.flat()
        t_critic = agent.critic_target.flat()
        critic_update(agent, random_batch(agent, 8), lr=1e-3)
        assert np.array_equal(agent.actor_target.flat(), t_actor)
        assert np.array_equal(agent.critic_target.flat(), t_critic)


class TestActorUpdate:
    def test_flat_critic_gives_constant_fitness_and_no_motion(self):
        agent = small_agent(seed=10)
        agent.critic = constant_critic(3, 2, value=0.7)
        before = agent.actor.flat()
        fitness = actor_update(agent, random_batch(agent, 8), lr=1e-3)
        assert fitness == pytest.approx(0.7, rel=1e-12)
        assert np.array_equal(agent.actor.flat(), before)

    def test_ascent_drives_action_toward_critic_optimum(self):
        # Hand-built critic computing q = -|u| (optimum at u = 0): repeated
        # ascent must shrink the actor's output magnitude.
        beta = 0.01
        agent = small_agent(obs_dim=2, action_dim=1, seed=11)
        scale = 1.0 / (1.0 - beta)
        critic = MlpParams([3, 2, 1], beta=beta, output_activation=LINEAR)
        critic.weights[0][...] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
        critic.weights[1][...] = [[-scale, -scale]]
        agent.critic = critic
        obs = derive_rng(11, 1).uniform(-1, 1, size=(16, 2))
        batch = (obs, None, None, None, None)
        out0, _ = mlp_forward(agent.actor, obs)
        before = float(np.mean(np.abs(out0)))
        assert before > 0.01, "actor should start away from the optimum"
        for _ in range(400):
            actor_update(agent, batch, lr=5e-3)
        out1, _ = mlp_forward(agent.actor, obs)
        after = float(np.mean(np.abs(out1)))
        assert after < 0.2 * before

    def test_fitness_gradient_matches_finite_differences(self):
        # d(mean q(y, mu(y)))/d(actor params) via the chain rule through a
        # frozen critic, against central differences.
        agent = small_agent(seed=12)
        agent.critic = random_mlp(derive_rng(12, 1), 2, 5, 1, LINEAR)
        obs = derive_rng(12, 2).uniform(-1, 1, size=(5, 3))

        def fitness_fn(actor_params):
            a, _ = mlp_forward(actor_params, obs)
            q, _ = mlp_forward(agent.critic, np.hstack([obs, a]))
            return float(np.mean(q))

        from secrl.nn.mlp import input_cotangent, mlp_backward

        a, actor_cache = mlp_forward(agent.actor, obs)
        q, critic_cache = mlp_forward(agent.critic, np.hstack([obs, a]))
        n = q.shape[0]
        x_cot = input_cotangent(agent.critic, critic_cache, np.full((n, 1), 1.0 / n))
        grads, _ = mlp_backward(agent.actor, actor_cache, x_cot[:, 3:])

        fd = fd_param_gradient(fitness_fn, agent.actor)
        assert relative_error(grads, fd) < 1e-5

    def test_critic_frozen_during_actor_step(self):
        agent = small_agent(seed=13)
        before = agent.critic.flat()
        actor_update(agent, random_batch(agent, 8), lr=1e-3)
        assert np.array_equal(agent.critic.flat(), before)


class TestLrSchedule:
    def test_published_anchor_values(self):
        sched = LinearSchedule(3.75e-4, 3.13e-4, 1_375_000, 1_620_000)
        assert sched.at(0) == 3.75e-4
        assert sched.at(1_375_000) == 3.75e-4
        assert sched.at(1_620_000) == 3.13e-4
        assert sched.at(5_000_000) == 3.13e-4

    def test_midpoint_is_average(self):
        sched = LinearSchedule(3.75e-4, 3.13e-4, 1_375_000, 1_620_000)
        mid = (1_375_000 + 1_620_000) // 2
        # end - start is even here, so the midpoint is exact.
        assert sched.at(mid) == pytest.approx((3.75e-4 + 3.13e-4) / 2, rel=1e-12)

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearSchedule(1.0, 0.0, 10, 5)
        with pytest.raises(ConfigurationError):
            LinearSchedule(1.0, 0.0, 0, 10).at(-1)


class TestAgentConfig:
    def test_gamma_range_enforced(self):
        with pytest.raises(ConfigurationError):
            AgentConfig(obs_dim=3, action_dim=2, gamma=1.0)

    def test_actor_critic_shapes(self):
        agent = small_agent(obs_dim=7, action_dim=4)
        assert agent.actor.layer_sizes == [7, 6, 6, 4]
        assert agent.critic.layer_sizes == [11, 8, 8, 1]
        assert agent.actor.output_activation == "tanh"
        assert agent.critic.output_activation == "linear"
