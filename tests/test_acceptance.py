"""Acceptance suite: one test (or test group) per release criterion, each
printing a pass line.  Criteria 1-5 and 7 are property/oracle checks that
run in minutes; criterion 6 is the long directional training experiment and
is marked slow (run with `pytest -m slow`).
"""

import numpy as np
import pytest

from helpers import fd_param_gradient, ou_stationary_variance, random_mlp, relative_error
from secrl.baselines.grid_cascade import GridCascadePolicy, tune_grid_cascade
from secrl.baselines.pi import MotorPiPolicy
from secrl.config import parse_config
from secrl.ddpg.agent import AgentConfig, DdpgAgent, critic_targets, soft_update
from secrl.ddpg.noise import OuNoise
from secrl.ddpg.replay import Experience, ReplayBuffer
from secrl.ddpg.train import Trainer, TrainSettings
from secrl.envs.base import task_reward
from secrl.envs.grid import GridEnv, GridParams, LoadProcess
from secrl.envs.motor import MotorEnv, MotorParams
from secrl.evaluation.experiment import (
    ControllerPolicy,
    build_eval_env,
    rollout,
    run_experiment,
)
from secrl.evaluation.metrics import mean_task_reward, steady_state_metric
from secrl.evaluation.testcases import gen_grid_testcase, gen_steadystate_testcase
from secrl.nn.mlp import LINEAR, input_cotangent, mlp_backward, mlp_forward
from secrl.sec import SecRewardConfig, SecState, SecActionWrapper, combine_reward, sec_apply, sec_penalty
from secrl.seeding import derive_rng

GAMMA = 0.946


def _report(criterion: str) -> None:
    print(f"[acceptance] {criterion}: PASS")


# -- criterion 1: gradient correctness ---------------------------------------

class TestCriterion1Gradients:
    def test_gradients_match_finite_differences_everywhere(self):
        rng = derive_rng(1001, 0)
        cases = 0

        # Raw network gradients across depths and output activations.
        for i in range(60):
            params = random_mlp(rng, 1 + i % 4, int(rng.integers(2, 5)),
                                int(rng.integers(1, 4)),
                                "tanh" if i % 2 else "linear")
            x = rng.uniform(-1.5, 1.5, size=params.in_dim)
            cot = rng.uniform(-1, 1, size=params.layer_sizes[-1])
            _, cache = mlp_forward(params, x)
            grads, _ = mlp_backward(params, cache, cot)

            def scalar(p, x=x, cot=cot):
                out, _ = mlp_forward(p, x)
                return float(np.dot(cot, out))

            assert relative_error(grads, fd_param_gradient(scalar, params)) < 1e-5
            cases += 1

        # Value-estimate training path: mean squared bootstrapped residual.
        for i in range(25):
            obs_dim, act_dim = int(rng.integers(2, 4)), int(rng.integers(1, 3))
            critic = random_mlp(rng, 1 + i % 3, obs_dim + act_dim, 1, "linear")
            n = 5
            obs = rng.uniform(-1, 1, (n, obs_dim))
            act = rng.uniform(-1, 1, (n, act_dim))
            y = rng.uniform(-1, 0, n)
            x = np.hstack([obs, act])
            q, cache = mlp_forward(critic, x)
            resid = q[:, 0] - y
            grads, _ = mlp_backward(critic, cache, (2.0 / n) * resid[:, None])

            def loss(p, x=x, y=y, n=n):
                qq, _ = mlp_forward(p, x)
                return float(np.mean((qq[:, 0] - y) ** 2))

            assert relative_error(grads, fd_param_gradient(loss, critic)) < 1e-5
            cases += 1

        # Policy-fitness path: chain rule through a frozen value network.
        for i in range(25):
            obs_dim, act_dim = int(rng.integers(2, 4)), int(rng.integers(1, 3))
            actor = random_mlp(rng, 1 + i % 3, obs_dim, act_dim, "tanh")
            critic = random_mlp(rng, 2, obs_dim + act_dim, 1, "linear")
            n = 5
            obs = rng.uniform(-1, 1, (n, obs_dim))
            a, actor_cache = mlp_forward(actor, obs)
            q, critic_cache = mlp_forward(critic, np.hstack([obs, a]))
            x_cot = input_cotangent(critic, critic_cache, np.full((n, 1), 1.0 / n))
            grads, _ = mlp_backward(actor, actor_cache, x_cot[:, obs_dim:])

            def fitness(p, obs=obs):
                aa, _ = mlp_forward(p, obs)
                qq, _ = mlp_forward(critic, np.hstack([obs, aa]))
                return float(np.mean(qq))

            assert relative_error(grads, fd_param_gradient(fitness, actor)) < 1e-5
            cases += 1

        assert cases >= 100
        _report(f"criterion 1 (gradient suite, {cases} randomized cases, rel err < 1e-5)")


# -- criterion 2: integrator mechanics ----------------------------------------

class TestCriterion2SecMechanics:
    def test_sec_mechanics_worked_examples(self):
        # Running-sum equivalence, exact.
        rng = derive_rng(1002, 0)
        state = SecState.fresh(2, 0.31, 0.66)
        oracle = [0.0, 0.0]
        for _ in range(300):
            u_i = rng.uniform(-0.008, 0.008, size=2)
            u_p = rng.uniform(-0.05, 0.05, size=2)
            u, state = sec_apply(np.concatenate([u_p, u_i]), state)
            assert np.all(np.abs(u) < 1.0)
            for c in range(2):
                oracle[c] = oracle[c] + 0.31 * u_i[c]
                assert state.zeta[c] == oracle[c]

        # Anti-windup worked example.
        state = SecState(zeta=np.array([0.4]), t_i=0.31, t_aw=0.66)
        u, state = sec_apply(np.array([0.9, 0.5]), state)
        assert u[0] == 1.0
        assert abs(state.zeta[0] - 0.2547) < 1e-12

        # Applied action range under arbitrary raw input and windup.
        state = SecState.fresh(3, 1.7, 0.66)
        for _ in range(1000):
            raw = rng.uniform(-1, 1, size=6)
            u, state = sec_apply(raw, state)
            assert np.all(np.abs(u) <= 1.0)

        # Penalty and combination worked values.
        assert abs(sec_penalty(np.array([1.0]), 1.0, GAMMA, 1) - (-0.054)) < 1e-12
        assert abs(combine_reward(-0.054, 0.0, 0.0, 1.48, 1.13) - (-0.054 / 3.61)) < 1e-12
        _report("criterion 2 (integrator mechanics, worked examples at 1e-12)")


# -- criterion 3: learner suite ------------------------------------------------

class TestCriterion3Learner:
    def test_replay_ring_eviction(self):
        buf = ReplayBuffer(5, obs_dim=1, action_dim=1)
        model = []
        for tag in range(13):
            e = Experience(np.array([float(tag)]), np.zeros(1), float(tag),
                           np.zeros(1), False)
            buf.push(e)
            model = (model + [float(tag)])[-5:]
        assert [x.reward for x in buf.contents()] == model

    def test_terminal_masking(self):
        cfg = AgentConfig(obs_dim=3, action_dim=2, actor_hidden=[6], critic_hidden=[8],
                          batch_size=4, buffer_capacity=16,
                          weight_scale=0.3, bias_scale=0.3)
        agent = DdpgAgent(cfg, derive_rng(1003, 0))
        rng = derive_rng(1004, 0)
        rew = rng.uniform(-1, 0, 16)
        nxt = rng.uniform(-1, 1, (16, 3))
        y = critic_targets(agent, rew, nxt, np.ones(16))
        assert np.array_equal(y, rew)

    def test_target_geometric_decay(self):
        tau = 2.61e-3
        cfg = AgentConfig(obs_dim=3, action_dim=2, actor_hidden=[6], critic_hidden=[8],
                          weight_scale=0.3, bias_scale=0.3)
        agent = DdpgAgent(cfg, derive_rng(1005, 0))
        for w in agent.critic_target.weights:
            w += 1.0
        d0 = np.linalg.norm(agent.critic_target.flat() - agent.critic.flat())
        for _ in range(100):
            soft_update(agent.critic_target, agent.critic, tau)
        dn = np.linalg.norm(agent.critic_target.flat() - agent.critic.flat())
        assert dn == pytest.approx((1 - tau) ** 100 * d0, rel=1e-11)

    def test_ou_statistics_one_million_steps(self):
        ou = OuNoise(1, stiffness=31.58, diffusion=2.6e-2, mean=0.0, dt=1e-4)
        rng = derive_rng(1006, 1)
        n = 1_000_000
        series = np.empty(n)
        for k in range(n):
            series[k] = ou.step(rng)[0]
        tail = series[50_000:]
        var_expected = ou_stationary_variance(ou)
        a = 1.0 - 31.58 * 1e-4
        se_mean = np.sqrt(var_expected) * np.sqrt((1 + a) / ((1 - a) * len(tail)))
        assert abs(tail.mean()) < 4.0 * se_mean
        assert abs(tail.var() - var_expected) / var_expected < 0.05

    def test_thousand_step_training_bit_determinism(self):
        def one_run():
            env = GridEnv(GridParams(), gamma=GAMMA, seed=77)
            rcfg = SecRewardConfig(1.48, 1.13, 250, 500, 1000, GAMMA)
            wrapped = SecActionWrapper(env, 0.31, 0.66, rcfg)
            acfg = AgentConfig(obs_dim=wrapped.obs_dim, action_dim=wrapped.action_dim,
                               actor_hidden=[10], critic_hidden=[16], batch_size=32,
                               buffer_capacity=1000, weight_scale=1e-2, bias_scale=1e-2,
                               lr=1e-3, lr_final=1e-3, lr_decay_start=0, lr_decay_end=1)
            trainer = Trainer(wrapped, acfg, TrainSettings(total_steps=1000), seed=77)
            return trainer.run()

        r1, r2 = one_run(), one_run()
        assert np.array_equal(r1.agent.actor.flat(), r2.agent.actor.flat())
        assert np.array_equal(r1.agent.critic.flat(), r2.agent.critic.flat())
        assert [(c.episode, c.steps, c.mean_reward) for c in r1.curve] == \
               [(c.episode, c.steps, c.mean_reward) for c in r2.curve]
        _report("criterion 3 (learner suite: ring, masking, decay, OU stats, determinism)")


# -- criterion 4: plant suite ---------------------------------------------------

class TestCriterion4Plants:
    def test_grid_steady_state_and_convergence(self):
        p = GridParams(noise_v=0.0, noise_i=0.0)
        u = np.array([0.45, 0.1, 0.02])
        r_load = 52.0
        env = GridEnv(p, seed=41, terminate_on_violation=False)
        env.set_load_schedule(np.full(25_000, r_load))
        env.reset(seed=41)
        for _ in range(20_000):
            env.step(u)
        w = p.omega
        l, rf, c = p.inductance, p.resistance, p.capacitance
        a = np.array([
            [-rf / l, w, 0, -1 / l, 0, 0],
            [-w, -rf / l, 0, 0, -1 / l, 0],
            [0, 0, -rf / l, 0, 0, -1 / l],
            [1 / c, 0, 0, -1 / (r_load * c), w, 0],
            [0, 1 / c, 0, -w, -1 / (r_load * c), 0],
            [0, 0, 1 / c, 0, 0, -1 / (r_load * c)],
        ])
        b = np.zeros((6, 3))
        b[0, 0] = b[1, 1] = b[2, 2] = 1 / l
        x_ref = np.linalg.solve(a, -b @ (u * p.v_dc / 2))
        assert np.linalg.norm(env.plant_state - x_ref) / np.linalg.norm(x_ref) < 1e-4

        results = {}
        for sub in (10, 20):
            e2 = GridEnv(GridParams(noise_v=0, noise_i=0, substeps=sub), seed=42,
                         terminate_on_violation=False)
            e2.set_load_schedule(np.full(3, 52.0))
            e2.reset(seed=42)
            e2.plant_state = np.array([1.0, -2.0, 0.5, 30.0, -20.0, 10.0])
            e2.step(u)
            e2.step(u)
            results[sub] = e2.plant_state
        assert np.linalg.norm(results[10] - results[20]) / np.linalg.norm(results[20]) < 1e-6

    def test_motor_steady_state_and_convergence(self):
        p = MotorParams()
        u = np.array([0.03, 0.11])
        env = MotorEnv(p, seed=43, terminate_on_violation=False)
        env.set_reference_schedule(np.zeros((12_000, 2)))
        env.reset(seed=43)
        for _ in range(10_000):
            env.step(u)
        v = u * p.v_dc / 2
        a = np.array([[-p.r_s, p.omega_el * p.l_q], [-p.omega_el * p.l_d, -p.r_s]])
        rhs = np.array([-v[0], -v[1] + p.omega_el * p.psi_pm])
        x_ref = np.linalg.solve(a, rhs)
        assert np.linalg.norm(env.plant_state - x_ref) / np.linalg.norm(x_ref) < 1e-4

        results = {}
        for sub in (10, 20):
            e2 = MotorEnv(MotorParams(substeps=sub), seed=44, terminate_on_violation=False)
            e2.set_reference_schedule(np.zeros((3, 2)))
            e2.reset(seed=44)
            e2.plant_state = np.array([4.0, -6.0])
            e2.step(u)
            e2.step(u)
            results[sub] = e2.plant_state
        assert np.linalg.norm(results[10] - results[20]) / np.linalg.norm(results[20]) < 1e-6

    def test_dead_time_impulse_both_plants(self):
        genv = GridEnv(GridParams(noise_v=0, noise_i=0), seed=45)
        genv.set_load_schedule(np.full(4, 80.0))
        genv.reset(seed=45)
        genv.step(np.array([0.8, 0.0, 0.0]))
        assert np.allclose(genv.plant_state, 0.0)
        genv.step(np.zeros(3))
        assert np.linalg.norm(genv.plant_state) > 1e-3

        menv = MotorEnv(MotorParams(omega_el=0.0), seed=46)
        menv.set_reference_schedule(np.zeros((4, 2)))
        menv.reset(seed=46)
        menv.step(np.array([0.5, 0.0]))
        assert np.allclose(menv.plant_state, 0.0)
        menv.step(np.zeros(2))
        assert np.linalg.norm(menv.plant_state) > 1e-3

    def test_load_process_bounds_and_event_rate(self):
        proc = LoadProcess.draw(derive_rng(1007, 3), dt=1e-4)
        rng = derive_rng(1008, 3)
        n = 1_000_000
        lo, hi = np.inf, -np.inf
        for _ in range(n):
            r = proc.step(rng)
            lo = min(lo, r)
            hi = max(hi, r)
        assert lo >= 14.0 and hi <= 200.0
        sigma3 = 3 * np.sqrt(n * 0.002 * 0.998)
        assert abs(proc.event_count - n * 0.002) <= sigma3
        _report("criterion 4 (plant suite: LTI steady states, convergence, dead time, load)")


# -- criterion 5: PI baselines ---------------------------------------------------

class TestCriterion5PiBaselines:
    def test_motor_pi_steady_state_per_segment(self):
        cfg = parse_config(None, {"env.kind": "motor"})
        case = gen_steadystate_testcase("motor", seed=301)
        env = build_eval_env(cfg, "motor")
        policy = ControllerPolicy(MotorPiPolicy(cfg.motor_params()))
        traj = rollout(env, policy, case, seed=301)
        seg_means, overall = steady_state_metric(traj, case.segment_length)
        assert np.all(np.abs(seg_means) < 0.005), seg_means
        assert abs(overall) < 0.005

    def test_grid_cascade_settles_under_constant_load(self):
        p = GridParams(noise_v=0.0, noise_i=0.0)
        env = GridEnv(p, gamma=0.0, seed=302, terminate_on_violation=False)
        env.set_load_schedule(np.full(6000, 47.0))
        env.reset(seed=302)
        policy = GridCascadePolicy(p)
        for _ in range(6000):
            u = policy.action(env.measurements())
            _, _, _, info = env.step(u, raw_p=u)
        err = np.abs(info["v_ref"] - info["v_meas"]) / p.v_lim
        assert np.all(err < 0.01)
        assert np.all(err < 1e-3)

    def test_tuned_grid_pi_near_reference_transient_score(self):
        # Tuned cascade scored on the long random-load case with
        # measurement noise; expected in the half-to-1.5x band around the
        # full-scale reference value -0.0332.
        p = GridParams()
        gains, _ = tune_grid_cascade(p, seed=11, steps=10_000)
        cfg = parse_config(None, {"env.kind": "grid"})
        case = gen_grid_testcase(seed=303, steps=100_000)
        env = build_eval_env(cfg, "grid")
        policy = ControllerPolicy(GridCascadePolicy(p, gains))
        traj = rollout(env, policy, case, seed=303)
        score = mean_task_reward(traj)
        assert -0.0332 * 1.5 <= score <= -0.0332 * 0.5, score
        _report("criterion 5 (PI baselines: motor steady state, grid settling, tuned score)")


# -- criterion 6: directional desk-scale experiment (slow) -----------------------

@pytest.mark.slow
@pytest.mark.parametrize("env_kind", ["grid", "motor"])
def test_criterion6_directional_steady_state_improvement(env_kind, tmp_path):
    """Five seeds each of the plain and augmented learner at 2e5 steps with
    tuned defaults (schedules rescaled to the horizon): the augmented
    median steady-state score must beat the plain median, and best-vs-best
    must improve by at least 20 percent."""
    cfg = parse_config(None, {
        "env.kind": env_kind,
        "train.steps": 200_000,
        "experiment.variants": ["ddpg", "sec-ddpg"],
        "experiment.seeds": [1, 2, 3, 4, 5],
    })
    summary = run_experiment(cfg, tmp_path / env_kind)
    stats = summary["metrics"]["steady_state_mean"]
    assert all(r["status"] == "ok" for r in summary["runs"]), summary["runs"]
    med_sec = stats["sec-ddpg"]["median"]
    med_ddpg = stats["ddpg"]["median"]
    assert med_sec > med_ddpg, (med_sec, med_ddpg)
    best_sec = stats["sec-ddpg"]["max"]
    best_ddpg = stats["ddpg"]["max"]
    improvement = (abs(best_ddpg) - abs(best_sec)) / abs(best_ddpg)
    assert improvement >= 0.20, improvement
    _report(f"criterion 6 ({env_kind}: median improved, best-vs-best {improvement:.0%})")


# -- criterion 7: bounded combined reward ----------------------------------------

class TestCriterion7BoundedReturn:
    def test_combined_reward_bounded_per_step_and_return(self):
        worst = -(1.0 - GAMMA)
        rng = derive_rng(1009, 0)
        for _ in range(2000):
            kp, ki = rng.uniform(0, 2, size=2)
            u_p = rng.uniform(-1, 1, size=3)
            u_i = rng.uniform(-1, 1, size=3)
            r_p = sec_penalty(u_p, kp, GAMMA, 3)
            r_i = sec_penalty(u_i, ki, GAMMA, 3)
            # Task rewards from both plants at arbitrary error magnitudes.
            v = rng.uniform(-600, 600, size=3)
            r_task = task_reward(np.array([169.7, 0, 0]), v, 254.56, GAMMA)
            r = combine_reward(r_task, r_p, r_i, kp, ki)
            assert worst - 1e-12 <= r <= 0.0
            i = rng.uniform(-60, 60, size=2)
            r_task_m = task_reward(np.zeros(2), i, 20.0, GAMMA)
            r = combine_reward(r_task_m, sec_penalty(u_p[:2], kp, GAMMA, 2),
                               sec_penalty(u_i[:2], ki, GAMMA, 2), kp, ki)
            assert worst - 1e-12 <= r <= 0.0

    def test_live_environment_rewards_within_bound(self):
        env = GridEnv(GridParams(), gamma=GAMMA, seed=88, terminate_on_violation=False)
        rcfg = SecRewardConfig(1.48, 1.13, 500, 800, 2000, GAMMA)
        wrapped = SecActionWrapper(env, 0.31, 0.66, rcfg)
        wrapped.reset(seed=88)
        rng = derive_rng(1010, 0)
        rewards = []
        for _ in range(2000):
            _, r, _, _ = wrapped.step(rng.uniform(-1, 1, size=6))
            rewards.append(r)
        rewards = np.array(rewards)
        assert np.all(rewards <= 0.0)
        assert np.all(rewards >= -(1.0 - GAMMA) - 1e-12)
        # Any discounted sum of such rewards lies in [-1, 0].
        ret = float(np.sum(rewards[:1000] * GAMMA ** np.arange(1000)))
        assert -1.0 <= ret <= 0.0
        _report("criterion 7 (per-step combined reward within [-(1-gamma), 0])")
