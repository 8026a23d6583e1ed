"""PI controllers: anti-windup behavior, tuning rules, closed-loop accuracy."""

import numpy as np
import pytest

from secrl import ConfigurationError
from secrl.baselines.grid_cascade import (
    CascadeGains,
    GridCascadePolicy,
    analytic_cascade_gains,
    tune_grid_cascade,
    validation_score,
)
from secrl.baselines.pi import MotorPiPolicy, PiController, symmetrical_optimum_gains
from secrl.envs.grid import GridEnv, GridParams
from secrl.envs.motor import MotorEnv, MotorParams

QUIET = dict(noise_v=0.0, noise_i=0.0)


class TestPiController:
    def test_zero_error_zero_state_gives_zero_output(self):
        pi = PiController(1.0, 0.5, -1.0, 1.0)
        assert pi.step(0.0, 1e-4)[0] == 0.0

    def test_pure_proportional_hand_value(self):
        pi = PiController(1.0, 0.0, -1.0, 1.0)
        assert pi.step(0.3, 1e-4)[0] == pytest.approx(0.3, abs=1e-15)

    def test_integral_accumulates(self):
        pi = PiController(0.0, 10.0, -1.0, 1.0)
        for _ in range(100):
            u = pi.step(0.5, 1e-3)
        # acc = ki * e * dt * n = 10 * 0.5 * 1e-3 * 100; the output lags by
        # one step because it reads the accumulator before integration.
        assert pi.acc[0] == pytest.approx(0.5, rel=1e-12)
        assert u[0] == pytest.approx(0.495, rel=1e-12)

    def test_accumulator_bounded_under_persistent_saturation(self):
        # 1e4 steps of full error against the output limit: back-calculation
        # must keep the accumulator finite and close to the limit band.
        pi = PiController(1.0, 50.0, -1.0, 1.0)
        for _ in range(10_000):
            pi.step(1.0, 1e-3)
        assert abs(pi.acc[0]) < 5.0

    def test_zero_error_holds_state_constant(self):
        pi = PiController(0.8, 5.0, -1.0, 1.0)
        for _ in range(50):
            pi.step(0.1, 1e-3)
        acc0 = pi.acc.copy()
        outs = [pi.step(0.0, 1e-3)[0] for _ in range(100)]
        assert np.allclose(outs, outs[0], atol=1e-15)
        assert np.array_equal(pi.acc, acc0)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ConfigurationError):
            PiController(1.0, 1.0, 1.0, -1.0)


class TestSymmetricalOptimum:
    def test_gains_scale_with_inductance(self):
        kp_small, _ = symmetrical_optimum_gains(MotorParams(l_d=1e-3, l_q=1e-3), 1e-4)
        kp_large, _ = symmetrical_optimum_gains(MotorParams(l_d=2e-3, l_q=2e-3), 1e-4)
        assert np.all(kp_large > kp_small)
        assert kp_large[0] == pytest.approx(2 * kp_small[0], rel=1e-12)

    def test_zero_delay_limit_finite_positive(self):
        kp, ki = symmetrical_optimum_gains(MotorParams(), 1e-4, delay_steps=0)
        assert np.all(np.isfinite(kp)) and np.all(kp > 0)
        assert np.all(np.isfinite(ki)) and np.all(ki > 0)

    def test_closed_loop_steady_state_reward_small(self):
        # Noise-free closed loop on a held reference: settled reward
        # magnitude far below the acceptance bound 0.005.
        p = MotorParams()
        env = MotorEnv(p, gamma=0.0, seed=0, terminate_on_violation=False)
        env.set_reference_schedule(np.tile([12.0, -9.0], (1500, 1)))
        env.reset(seed=0)
        pi = MotorPiPolicy(p)
        for _ in range(1500):
            u = pi.action(env.measurements())
            _, r, _, _ = env.step(u, raw_p=u)
        assert abs(r) < 0.005

    def test_zero_steady_state_error_for_step_references(self):
        p = MotorParams()
        env = MotorEnv(p, gamma=0.0, seed=1, terminate_on_violation=False)
        refs = np.vstack([np.tile([5.0, 5.0], (800, 1)), np.tile([-10.0, 3.0], (800, 1))])
        env.set_reference_schedule(refs)
        env.reset(seed=1)
        pi = MotorPiPolicy(p)
        for k in range(1600):
            u = pi.action(env.measurements())
            _, _, _, info = env.step(u, raw_p=u)
            if k in (799, 1599):
                err = np.abs(info["i_ref"] - info["i_meas"]) / p.i_lim
                assert np.all(err < 1e-3)


class TestGridCascade:
    def test_zero_error_output_equals_feedforward(self):
        p = GridParams(**QUIET)
        policy = GridCascadePolicy(p)
        v = np.array([100.0, 0.0, 0.0])
        u = policy.action({"v": v, "i": np.zeros(3), "ref": v})
        assert np.allclose(u, v / (p.v_dc / 2.0), atol=1e-12)

    def test_settles_below_one_permille_voltage_error(self):
        p = GridParams(**QUIET)
        env = GridEnv(p, gamma=0.0, seed=2, terminate_on_violation=False)
        env.set_load_schedule(np.full(6000, 33.0))
        env.reset(seed=2)
        policy = GridCascadePolicy(p)
        for _ in range(6000):
            u = policy.action(env.measurements())
            _, _, _, info = env.step(u, raw_p=u)
        err = np.abs(info["v_ref"] - info["v_meas"]) / p.v_lim
        assert np.all(err < 1e-3)

    def test_recovers_from_full_range_load_step(self):
        p = GridParams(**QUIET)
        env = GridEnv(p, gamma=0.0, seed=3, terminate_on_violation=False)
        loads = np.concatenate([np.full(5000, 200.0), np.full(5000, 14.0)])
        env.set_load_schedule(loads)
        env.reset(seed=3)
        policy = GridCascadePolicy(p)
        worst_after_step = 0.0
        for k in range(10_000):
            u = policy.action(env.measurements())
            _, _, _, info = env.step(u, raw_p=u)
            if k >= 5000:
                worst_after_step = max(
                    worst_after_step,
                    0.0 if k < 5500 else np.max(np.abs(info["v_ref"] - info["v_meas"])) / p.v_lim,
                )
            assert np.isfinite(env.plant_state).all()
        # Settles back below 1 % of the limit after the transient window.
        assert worst_after_step < 0.01

    def test_tuning_deterministic_and_stabilizing(self):
        p = GridParams()
        g1, rep1 = tune_grid_cascade(p, seed=5, factors_outer=(1.0, 2.0), factors_inner=(1.0,), steps=2000)
        g2, rep2 = tune_grid_cascade(p, seed=5, factors_outer=(1.0, 2.0), factors_inner=(1.0,), steps=2000)
        assert g1 == g2
        assert rep1["best_score"] == rep2["best_score"]
        score, violated = validation_score(p, g1, seed=5, steps=2000)
        assert not violated
        assert score == pytest.approx(rep1["best_score"], rel=1e-12)

    def test_tuned_gains_beat_or_match_analytic_on_validation(self):
        p = GridParams()
        base = analytic_cascade_gains(p)
        gains, report = tune_grid_cascade(p, seed=6, factors_outer=(1.0, 2.0), factors_inner=(1.0,), steps=2000)
        base_score, _ = validation_score(p, base, seed=6, steps=2000)
        assert report["best_score"] >= base_score - 1e-12


def live_validation_episode(params, gains, seed, steps):
    """Reference for validation_score: the seeded episode with the load
    drawn live by the environment, step by step."""
    env = GridEnv(params, gamma=0.0, seed=seed, terminate_on_violation=False)
    policy = GridCascadePolicy(params, gains)
    env.reset(seed=seed)
    policy.reset()
    total = 0.0
    violated = False
    for _ in range(steps):
        u = policy.action(env.measurements())
        _, r, _, info = env.step(u, raw_p=u)
        total += r
        violated = violated or info["limit_violation"]
    return total / steps, violated


class TestGridTuningOnFrozenLoads:
    @pytest.mark.parametrize("dt", [1e-4, 2e-4])
    def test_validation_score_equals_live_episode(self, dt):
        p = GridParams(dt=dt)
        gains = analytic_cascade_gains(p)
        assert validation_score(p, gains, seed=7, steps=1500) == \
            live_validation_episode(p, gains, seed=7, steps=1500)

    def test_tuning_trials_and_gains_equal_live_episodes(self):
        p = GridParams()
        gains, report = tune_grid_cascade(
            p, seed=8, factors_outer=(1.0, 3.0), factors_inner=(0.5, 1.0), steps=800)
        best, best_score = None, -np.inf
        for trial in report["trials"]:
            g = CascadeGains(**trial["gains"])
            score, violated = live_validation_episode(p, g, seed=8, steps=800)
            assert (trial["score"], trial["violated"]) == (score, violated)
            if not violated and score > best_score:
                best, best_score = g, score
        assert gains == best
        assert report["best_score"] == best_score
