"""Motor plant: dq dynamics vs analytic steady states, back-EMF sign,
feature layout, reward values, reference generation, termination."""

import numpy as np
import pytest

from secrl import ConfigurationError, EnvironmentFault
from secrl.envs.base import task_reward
from secrl.envs.motor import MotorEnv, MotorParams, ReferenceGenerator
from secrl.seeding import derive_rng


def analytic_steady_state(p: MotorParams, u: np.ndarray) -> np.ndarray:
    """Solve the 2x2 linear system for di/dt = 0 (oracle)."""
    v = u * p.v_dc / 2.0
    a = np.array([
        [-p.r_s, p.omega_el * p.l_q],
        [-p.omega_el * p.l_d, -p.r_s],
    ])
    rhs = np.array([-v[0], -v[1] + p.omega_el * p.psi_pm])
    return np.linalg.solve(a, rhs)


def fixed_ref_env(p: MotorParams | None = None, seed=0, terminate=False) -> MotorEnv:
    # Dynamics-oracle rollouts run past the current limit on purpose.
    env = MotorEnv(p or MotorParams(), seed=seed, terminate_on_violation=terminate)
    env.set_reference_schedule(np.zeros((60_000, 2)))
    env.reset(seed=seed)
    return env


class TestDynamics:
    def test_zero_speed_zero_input_is_equilibrium(self):
        p = MotorParams(omega_el=0.0)
        env = MotorEnv(p, seed=0)
        env.set_reference_schedule(np.zeros((100, 2)))
        env.reset(seed=0)
        for _ in range(50):
            env.step(np.zeros(2))
        assert np.allclose(env.plant_state, 0.0, atol=1e-18)

    def test_steady_state_matches_linear_solve(self):
        p = MotorParams()
        u = np.array([0.02, 0.12])
        env = fixed_ref_env(p, seed=1)
        for _ in range(10_000):
            env.step(u)
        x_ref = analytic_steady_state(p, u)
        assert np.linalg.norm(env.plant_state - x_ref) / np.linalg.norm(x_ref) < 1e-4

    def test_back_emf_drives_q_current_negative(self):
        # u = 0 with spinning rotor: the only drive is -omega*psi in the
        # q equation, so i_q settles negative.
        p = MotorParams()
        x_ref = analytic_steady_state(p, np.zeros(2))
        assert x_ref[1] < 0.0
        env = fixed_ref_env(p, seed=2)
        for _ in range(10_000):
            env.step(np.zeros(2))
        assert env.plant_state[1] == pytest.approx(x_ref[1], rel=1e-4)

    def test_substep_halving_converges(self):
        x0 = np.array([5.0, -3.0])
        u = np.array([0.1, -0.05])
        results = {}
        for sub in (10, 20):
            env = MotorEnv(MotorParams(substeps=sub), seed=3, terminate_on_violation=False)
            env.set_reference_schedule(np.zeros((10, 2)))
            env.reset(seed=3)
            env.plant_state = x0.copy()
            env.step(u)
            env.step(u)
            results[sub] = env.plant_state
        rel = np.linalg.norm(results[10] - results[20]) / np.linalg.norm(results[20])
        assert rel < 1e-6

    def test_dead_time_one_step(self):
        p = MotorParams(omega_el=0.0)  # no back-EMF: zero state is frozen
        env = MotorEnv(p, seed=4)
        env.set_reference_schedule(np.zeros((10, 2)))
        env.reset(seed=4)
        env.step(np.array([0.5, 0.0]))
        assert np.allclose(env.plant_state, 0.0, atol=1e-18)
        env.step(np.zeros(2))
        assert np.linalg.norm(env.plant_state) > 1e-3


class TestFeaturesAndReward:
    def test_observation_length(self):
        env = MotorEnv(MotorParams(history_length=5), seed=5)
        assert env.obs_dim == 20
        assert len(env.reset(seed=5)) == 20

    def test_zero_error_block_when_tracking(self):
        p = MotorParams()
        env = fixed_ref_env(p, seed=6)
        env.i_ref = np.array([3.0, -4.0])
        obs = env._features(np.array([3.0, -4.0]), np.zeros(2), np.zeros(2))
        assert np.allclose(obs[4:6], 0.0)
        assert np.allclose(obs[2:4], env.i_ref / p.i_lim)

    def test_features_bounded_within_limits(self):
        p = MotorParams()
        env = fixed_ref_env(p, seed=7)
        env.i_ref = np.array([p.i_lim * 0.9, 0.0])
        obs = env._features(np.array([-p.i_lim, p.i_lim]), np.ones(2), -np.ones(2))
        assert np.all(np.abs(obs) <= 1.0 + 1e-12)

    def test_past_action_blocks_echo_raw_channels(self):
        env = fixed_ref_env(seed=8)
        rp = np.array([0.3, -0.4])
        ri = np.array([0.1, 0.2])
        obs, _, _, _ = env.step(np.zeros(2), raw_p=rp, raw_i=ri)
        assert np.array_equal(obs[6:8], rp)
        assert np.array_equal(obs[8:10], ri)

    def test_reward_values(self):
        p = MotorParams()
        ref = np.array([5.0, -2.0])
        assert task_reward(ref, ref, p.i_lim, 0.946) == 0.0
        meas = ref - np.array([p.i_lim, -p.i_lim])
        assert task_reward(ref, meas, p.i_lim, 0.0) == pytest.approx(-1.0, abs=1e-12)
        meas = ref - np.array([p.i_lim, 0.0])
        assert task_reward(ref, meas, p.i_lim, 0.946) == pytest.approx(-0.027, abs=1e-12)

    def test_reward_bounded(self):
        p = MotorParams()
        rng = derive_rng(9, 0)
        for _ in range(300):
            ref = rng.uniform(-p.i_lim, p.i_lim, size=2)
            meas = rng.uniform(-2 * p.i_lim, 2 * p.i_lim, size=2)
            r = task_reward(ref, meas, p.i_lim, 0.946)
            assert -(1.0 - 0.946) - 1e-12 <= r <= 0.0


class TestReferenceGenerator:
    def test_draws_stay_in_feasible_disc(self):
        p = MotorParams()
        gen = ReferenceGenerator(p.i_lim, p.reference_radius, 0.0)
        rng = derive_rng(10, 2)
        for _ in range(2000):
            ref = gen.draw(rng)
            assert np.linalg.norm(ref) <= p.reference_radius * p.i_lim + 1e-12

    def test_hold_probability_controls_switch_rate(self):
        gen = ReferenceGenerator(20.0, 0.9, hold_prob=0.99)
        rng = derive_rng(11, 2)
        ref = gen.draw(rng)
        switches = 0
        n = 20_000
        for _ in range(n):
            new = gen.step(ref, rng)
            if not np.array_equal(new, ref):
                switches += 1
            ref = new
        # Binomial(n, 0.01) within 4 sigma.
        assert abs(switches - n * 0.01) < 4 * np.sqrt(n * 0.01 * 0.99)

    def test_training_references_in_disc_through_env(self):
        p = MotorParams(reference_hold_prob=0.5)
        env = MotorEnv(p, seed=12)
        env.reset(seed=12)
        for _ in range(500):
            _, _, terminal, info = env.step(np.zeros(2))
            assert np.linalg.norm(info["i_ref"]) <= p.reference_radius * p.i_lim + 1e-12
            if terminal:
                env.reset()

    def test_scripted_schedule_replayed_exactly(self):
        sched = np.array([[1.0, 2.0]] * 5 + [[3.0, -1.0]] * 5)
        env = MotorEnv(MotorParams(), seed=13, terminate_on_violation=False)
        env.set_reference_schedule(sched)
        env.reset(seed=13)
        for j in range(10):
            _, _, _, info = env.step(np.zeros(2))
            assert np.array_equal(info["i_ref"], sched[j])


class TestTermination:
    def test_current_limit_violation_terminates(self):
        env = fixed_ref_env(seed=14, terminate=True)
        terminal = False
        for _ in range(100):
            _, _, terminal, info = env.step(np.array([1.0, 1.0]))
            if terminal:
                assert info["limit_violation"]
                break
        assert terminal
        with pytest.raises(EnvironmentFault):
            env.step(np.zeros(2))

    def test_rollout_deterministic_per_seed(self):
        def rollout():
            env = MotorEnv(MotorParams(), seed=15)
            obs = [env.reset(seed=15)]
            for _ in range(300):
                o, r, t, _ = env.step(np.array([0.02, 0.05]))
                obs.append(o)
                if t:
                    break
            return np.vstack(obs)

        assert np.array_equal(rollout(), rollout())

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            MotorParams(r_s=0.0)
        with pytest.raises(ConfigurationError):
            MotorParams(reference_radius=1.5)
        with pytest.raises(ConfigurationError):
            MotorParams(reference_hold_prob=1.0)
