"""Grid plant: dynamics vs analytic steady states, dead time, load process,
feature layout, reward values, termination and energy behavior."""

import numpy as np
import pytest

from secrl import ConfigurationError, EnvironmentFault
from secrl.envs.base import LtiStepper, task_reward
from secrl.envs.grid import (
    DRIFT_STEPS_RANGE,
    LOAD_DIFFUSION_RANGE,
    LOAD_EVENT_PROB,
    LOAD_STIFFNESS_RANGE,
    R_LOAD_MAX,
    R_LOAD_MIN,
    SCHEDULE_BLOCK,
    GridEnv,
    GridParams,
    LoadProcess,
    seeded_load_series,
)
from secrl.evaluation.testcases import gen_grid_testcase, gen_steadystate_testcase
from secrl.seeding import STREAM_ENV, STREAM_LOAD, derive_rng

QUIET = dict(noise_v=0.0, noise_i=0.0)


def quiet_params(**overrides) -> GridParams:
    kw = dict(QUIET)
    kw.update(overrides)
    return GridParams(**kw)


def analytic_matrices(p: GridParams, r_load: float):
    """Independent assembly of the dq0 LC-filter state space (oracle)."""
    l, rf, c, w = p.inductance, p.resistance, p.capacitance, p.omega
    a = np.array([
        [-rf / l, w, 0.0, -1.0 / l, 0.0, 0.0],
        [-w, -rf / l, 0.0, 0.0, -1.0 / l, 0.0],
        [0.0, 0.0, -rf / l, 0.0, 0.0, -1.0 / l],
        [1.0 / c, 0.0, 0.0, -1.0 / (r_load * c), w, 0.0],
        [0.0, 1.0 / c, 0.0, -w, -1.0 / (r_load * c), 0.0],
        [0.0, 0.0, 1.0 / c, 0.0, 0.0, -1.0 / (r_load * c)],
    ])
    b = np.zeros((6, 3))
    b[0, 0] = b[1, 1] = b[2, 2] = 1.0 / l
    return a, b


def settle(env: GridEnv, u: np.ndarray, steps: int) -> np.ndarray:
    for _ in range(steps):
        env.step(u)
    return env.plant_state


class TestDynamics:
    def test_zero_input_zero_state_is_equilibrium(self):
        env = GridEnv(quiet_params(), seed=0)
        env.set_load_schedule(np.full(100, 50.0))
        env.reset(seed=0)
        settle(env, np.zeros(3), 50)
        assert np.allclose(env.plant_state, 0.0, atol=1e-18)

    def test_steady_state_matches_linear_solve(self):
        # DC solution of A x = -B u_v under constant load and action.
        p = quiet_params()
        r_load = 37.0
        u = np.array([0.4, 0.1, 0.05])
        env = GridEnv(p, seed=1)
        env.set_load_schedule(np.full(30_000, r_load))
        env.reset(seed=1)
        x = settle(env, u, 20_000)
        a, b = analytic_matrices(p, r_load)
        x_ref = np.linalg.solve(a, -b @ (u * p.v_dc / 2.0))
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-4

    @pytest.mark.parametrize("r_load", [14.0, 200.0])
    def test_steady_state_at_load_extremes(self, r_load):
        p = quiet_params()
        u = np.array([0.55, 0.0, 0.0])
        env = GridEnv(p, seed=2, terminate_on_violation=False)
        env.set_load_schedule(np.full(30_000, r_load))
        env.reset(seed=2)
        x = settle(env, u, 20_000)
        a, b = analytic_matrices(p, r_load)
        x_ref = np.linalg.solve(a, -b @ (u * p.v_dc / 2.0))
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-4

    def test_substep_halving_converges(self):
        # One control period from a populated state: doubling substeps
        # changes the result by less than 1e-6 relative.
        x0 = np.array([2.0, -1.0, 0.5, 40.0, -10.0, 5.0])
        u = np.array([0.3, -0.2, 0.1])
        results = {}
        for sub in (10, 20):
            env = GridEnv(quiet_params(substeps=sub), seed=3)
            env.set_load_schedule(np.full(5, 60.0))
            env.reset(seed=3)
            env.plant_state = x0.copy()
            env.step(u)      # integrates pending zero action
            env.step(u)      # integrates u
            results[sub] = env.plant_state
        rel = np.linalg.norm(results[10] - results[20]) / np.linalg.norm(results[20])
        assert rel < 1e-6

    def test_dead_time_one_step(self):
        # An action submitted at step k first moves the plant at step k+1.
        env = GridEnv(quiet_params(), seed=4)
        env.set_load_schedule(np.full(10, 80.0))
        env.reset(seed=4)
        env.step(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(env.plant_state, 0.0, atol=1e-18)
        env.step(np.zeros(3))
        assert np.linalg.norm(env.plant_state) > 1e-3

    def test_energy_non_increasing_without_source(self):
        p = quiet_params()
        env = GridEnv(p, seed=5)
        env.set_load_schedule(np.full(3000, 25.0))
        env.reset(seed=5)
        env.plant_state = np.array([3.0, -2.0, 1.0, 100.0, -50.0, 20.0])

        def energy(x):
            return 0.5 * p.inductance * np.sum(x[:3] ** 2) + 0.5 * p.capacitance * np.sum(x[3:] ** 2)

        e_prev = energy(env.plant_state)
        for _ in range(2000):
            env.step(np.zeros(3))
            e = energy(env.plant_state)
            assert e <= e_prev * (1 + 1e-12)
            e_prev = e

    def test_nonfinite_action_or_shape_rejected(self):
        env = GridEnv(quiet_params(), seed=6)
        env.set_load_schedule(np.full(10, 80.0))
        env.reset(seed=6)
        with pytest.raises(ConfigurationError):
            env.step(np.array([2.0, 0.0, 0.0]))
        with pytest.raises(ConfigurationError):
            env.step(np.zeros(2))


class TestLoadProcess:
    def test_fixed_point_without_diffusion_or_event(self):
        proc = LoadProcess(stiffness=100.0, diffusion=0.0, mean=50.0, value=50.0, dt=1e-4)
        rng = derive_rng(7, 3)
        for _ in range(1000):
            r = proc.step(rng)
        assert r == pytest.approx(50.0, abs=1e-12) or proc.event_count > 0

    def test_outputs_always_within_bounds(self):
        proc = LoadProcess.draw(derive_rng(8, 3), dt=1e-4)
        rng = derive_rng(9, 3)
        values = np.array([proc.step(rng) for _ in range(100_000)])
        assert values.min() >= 14.0
        assert values.max() <= 200.0

    def test_event_rate_binomial(self):
        # 1e6 steps at 0.2 %: expect 2000 events within 3 sigma (~134).
        proc = LoadProcess.draw(derive_rng(10, 3), dt=1e-4)
        rng = derive_rng(11, 3)
        for _ in range(1_000_000):
            proc.step(rng)
        sigma3 = 3 * np.sqrt(1_000_000 * 0.002 * 0.998)
        assert abs(proc.event_count - 2000) <= sigma3

    def test_same_seed_same_trajectory(self):
        t1 = [LoadProcess.draw(derive_rng(12, 3), 1e-4).step(derive_rng(13, 3)) for _ in range(1)]
        proc_a = LoadProcess.draw(derive_rng(12, 3), 1e-4)
        rng_a = derive_rng(13, 3)
        series_a = [proc_a.step(rng_a) for _ in range(500)]
        proc_b = LoadProcess.draw(derive_rng(12, 3), 1e-4)
        rng_b = derive_rng(13, 3)
        series_b = [proc_b.step(rng_b) for _ in range(500)]
        assert series_a == series_b


def np_clip_load_series(seed: int, steps: int, dt: float) -> np.ndarray:
    """seeded_load_series through the scalar np.clip calls LoadProcess
    used to make: the reference its min/max clips must match bit for bit."""

    class NpClipLoad(LoadProcess):
        def _draw_mean(self, rng):
            lo = R_LOAD_MIN + rng.normal(0.0, 2.0)
            return float(np.clip(rng.uniform(-10.0, R_LOAD_MAX), lo, R_LOAD_MAX))

        def step(self, rng):
            if rng.uniform() < LOAD_EVENT_PROB:
                self.event_count += 1
                self.stiffness = rng.uniform(*LOAD_STIFFNESS_RANGE)
                self.diffusion = rng.uniform(*LOAD_DIFFUSION_RANGE)
                new_mean = self._draw_mean(rng)
                if rng.uniform() < 0.5:
                    self.mean = new_mean
                    self._drift_left = 0
                else:
                    steps = int(rng.integers(DRIFT_STEPS_RANGE[0], DRIFT_STEPS_RANGE[1] + 1))
                    self._drift_target = new_mean
                    self._drift_rate = (new_mean - self.mean) / steps
                    self._drift_left = steps
            if self._drift_left > 0:
                self.mean += self._drift_rate
                self._drift_left -= 1
                if self._drift_left == 0:
                    self.mean = self._drift_target
            shock = self.diffusion * np.sqrt(self.dt) * rng.standard_normal()
            self.value += self.stiffness * (self.mean - self.value) * self.dt + shock
            self.value = float(np.clip(self.value, R_LOAD_MIN, R_LOAD_MAX))
            return self.value

    rng = derive_rng(seed, STREAM_LOAD)
    proc = NpClipLoad.draw(rng, dt)
    return np.array([proc.step(rng) for _ in range(steps)])


class TestLoadClipReference:
    def test_series_equals_np_clip_reference(self):
        at_min = at_max = 0
        for seed in range(6):
            series = seeded_load_series(seed, 20_000, 1e-4)
            assert series.tobytes() == np_clip_load_series(seed, 20_000, 1e-4).tobytes(), seed
            at_min += int(np.sum(series == R_LOAD_MIN))
            at_max += int(np.sum(series == R_LOAD_MAX))
        assert at_min > 0 and at_max > 0


class TestLockstep:
    def test_lockstep_needs_fresh_episode_and_refuses_step(self):
        env = GridEnv(GridParams(), seed=5)
        env.step(np.zeros(3))
        with pytest.raises(EnvironmentFault):
            env.lockstep(4)
        env.reset(seed=5)
        env.lockstep(4)
        assert env.measurements()["v"].shape == (4, 3)
        with pytest.raises(EnvironmentFault):
            env.step(np.zeros(3))
        with pytest.raises(ConfigurationError):
            env.advance(np.zeros(3))
        v, i, r, violation = env.advance(np.zeros((4, 3)))
        assert v.shape == i.shape == (4, 3) and r.shape == violation.shape == (4,)
        env.reset(seed=5)
        env.step(np.zeros(3))


class TestFeaturesAndReward:
    def test_observation_length(self):
        env = GridEnv(quiet_params(history_length=5), seed=14)
        assert env.obs_dim == 33
        assert len(env.reset(seed=14)) == 33

    def test_reset_observation_layout(self):
        p = quiet_params()
        env = GridEnv(p, seed=15)
        obs = env.reset(seed=15)
        assert np.allclose(obs[0:3], 0.0)              # currents
        assert np.allclose(obs[3:6], 0.0)              # voltages
        assert obs[6] == pytest.approx(p.v_nom / p.v_lim)  # reference d
        assert obs[7] == obs[8] == 0.0
        assert obs[9] == pytest.approx(0.5 * p.v_nom / p.v_lim)  # error d
        assert np.allclose(obs[12:18], 0.0)            # past actions
        assert np.allclose(obs[18:], 0.0)              # history

    def test_reference_is_nominal_voltage(self):
        p = GridParams()
        assert p.v_ref[0] == pytest.approx(120.0 * np.sqrt(2.0))
        assert p.v_ref[1] == p.v_ref[2] == 0.0

    def test_perfect_tracking_zeroes_error_block(self):
        p = quiet_params()
        env = GridEnv(p, seed=16)
        env.set_load_schedule(np.full(10, 100.0))
        env.reset(seed=16)
        env.plant_state = np.array([0.0, 0.0, 0.0, p.v_nom, 0.0, 0.0])
        # Bypass dynamics: evaluate the feature map directly.
        obs = env._features(p.v_ref.copy(), np.zeros(3), np.zeros(3), np.zeros(3))
        assert np.allclose(obs[9:12], 0.0)

    def test_features_bounded_at_signal_limits(self):
        p = quiet_params()
        env = GridEnv(p, seed=17)
        env.reset(seed=17)
        v = np.full(3, -p.v_lim)
        i = np.full(3, p.i_lim)
        obs = env._features(v, i, np.ones(3), -np.ones(3))
        assert np.all(np.abs(obs) <= 1.0 + 1e-12)

    def test_past_action_blocks_echo_raw_channels(self):
        env = GridEnv(quiet_params(), seed=18)
        env.set_load_schedule(np.full(10, 100.0))
        env.reset(seed=18)
        rp = np.array([0.1, 0.2, 0.3])
        ri = np.array([-0.1, -0.2, -0.3])
        obs, _, _, _ = env.step(np.zeros(3), raw_p=rp, raw_i=ri)
        assert np.array_equal(obs[12:15], rp)
        assert np.array_equal(obs[15:18], ri)

    def test_history_contains_past_measurements(self):
        p = quiet_params(history_length=3)
        env = GridEnv(p, seed=19)
        env.set_load_schedule(np.full(10, 100.0))
        env.reset(seed=19)
        seen = []
        for _ in range(4):
            obs, _, _, info = env.step(np.array([0.5, 0.0, 0.0]))
            # history block is the previous measurements, oldest first
            hist = obs[18:].reshape(3, 3) * p.v_lim
            if len(seen) >= 1:
                assert np.allclose(hist[-1], seen[-1], atol=1e-12)
            if len(seen) >= 2:
                assert np.allclose(hist[-2], seen[-2], atol=1e-12)
            seen.append(info["v_meas"])

    def test_reward_values(self):
        p = GridParams()
        ref = p.v_ref
        assert task_reward(ref, ref, p.v_lim, 0.946) == 0.0
        v = ref - np.array([p.v_lim, 0.0, 0.0])
        assert task_reward(ref, v, p.v_lim, 0.0) == pytest.approx(-1.0 / 3.0, abs=1e-12)
        v = ref - np.array([p.v_lim, p.v_lim, -p.v_lim])
        assert task_reward(ref, v, p.v_lim, 0.946) == pytest.approx(-0.054, abs=1e-12)

    def test_reward_bounded_and_zero_only_at_perfect_tracking(self):
        p = GridParams()
        rng = derive_rng(20, 0)
        for _ in range(300):
            v = rng.uniform(-2 * p.v_lim, 2 * p.v_lim, size=3)
            r = task_reward(p.v_ref, v, p.v_lim, 0.946)
            assert -(1.0 - 0.946) - 1e-12 <= r <= 0.0
            if not np.allclose(v, p.v_ref):
                assert r < 0.0

    def test_reward_settles_with_plant(self):
        p = quiet_params()
        env = GridEnv(p, gamma=0.0, seed=21, terminate_on_violation=False)
        env.set_load_schedule(np.full(30_000, 45.0))
        env.reset(seed=21)
        u = np.array([0.566, 0.0, 0.0])
        rewards = []
        for _ in range(20_000):
            _, r, _, _ = env.step(u)
            rewards.append(r)
        tail = np.array(rewards[-100:])
        assert tail.std() < 1e-10
        a, b = analytic_matrices(p, 45.0)
        x_ss = np.linalg.solve(a, -b @ (u * p.v_dc / 2.0))
        expected = task_reward(p.v_ref, x_ss[3:], p.v_lim, 0.0)
        assert tail[-1] == pytest.approx(expected, abs=1e-6)


class TestTermination:
    def test_violation_terminates_and_blocks_stepping(self):
        env = GridEnv(quiet_params(), seed=22, terminate_on_violation=True)
        env.set_load_schedule(np.full(5000, 200.0))
        env.reset(seed=22)
        terminal = False
        for _ in range(5000):
            _, _, terminal, info = env.step(np.ones(3))
            if terminal:
                assert info["limit_violation"]
                break
        assert terminal
        with pytest.raises(EnvironmentFault):
            env.step(np.zeros(3))

    def test_violation_ignored_when_disabled(self):
        env = GridEnv(quiet_params(), seed=23)
        env.set_load_schedule(np.full(3000, 200.0))
        env.reset(seed=23)
        for _ in range(2000):
            _, _, terminal, _ = env.step(np.ones(3))
            assert not terminal


class TestDeterminism:
    def test_same_seed_same_rollout_with_noise(self):
        def rollout():
            env = GridEnv(GridParams(), seed=24)
            obs = [env.reset(seed=24)]
            for k in range(200):
                o, r, t, _ = env.step(np.array([0.3, 0.0, 0.0]))
                obs.append(o)
            return np.vstack(obs)

        a, b = rollout(), rollout()
        assert np.array_equal(a, b)

    def test_state_roundtrip_under_load_schedule(self):
        schedule = np.linspace(20.0, 80.0, 50)
        env = GridEnv(GridParams(), seed=31)
        env.set_load_schedule(schedule)
        env.reset()
        u = np.array([0.2, -0.1, 0.0])
        for _ in range(7):
            env.step(u)
        state = env.state_dict()

        fresh = GridEnv(GridParams(), seed=5)
        fresh.set_load_schedule(schedule)
        fresh.reset()
        fresh.load_state_dict(state)
        assert fresh.r_load == env.r_load == schedule[6]
        o1, r1, t1, i1 = env.step(u)
        o2, r2, t2, i2 = fresh.step(u)
        assert np.array_equal(o1, o2) and r1 == r2 and t1 == t2
        assert fresh.r_load == env.r_load

    def test_older_snapshot_with_env_stream_continues_byte_equal(self):
        # Earlier versions also stored an "rng_env" stream that no step drew from.
        env = GridEnv(GridParams(), seed=31)
        u = np.array([0.2, -0.1, 0.05])
        for _ in range(40):
            env.step(u)
        state = env.state_dict()
        assert "rng_env" not in state
        state["rng_env"] = derive_rng(31, STREAM_ENV).bit_generator.state

        fresh = GridEnv(GridParams(), seed=5)
        fresh.load_state_dict(state)
        for _ in range(300):
            o1, r1, t1, i1 = env.step(u)
            o2, r2, t2, i2 = fresh.step(u)
            assert o1.tobytes() == o2.tobytes() and r1 == r2 and t1 == t2
            assert i1["r_load"] == i2["r_load"]
            assert env.plant_state.tobytes() == fresh.plant_state.tobytes()

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            GridParams(inductance=-1.0)
        with pytest.raises(ConfigurationError):
            GridParams(substeps=0)
        with pytest.raises(ConfigurationError):
            # Way too few substeps for the LC resonance.
            GridParams(capacitance=1e-9, inductance=1e-7, substeps=1)


def oracle_stepper(p: GridParams, r_load: float) -> LtiStepper:
    a, b = analytic_matrices(p, r_load)
    return LtiStepper(a, b, np.zeros(6), p.dt, p.substeps)


class FreshBuildGridEnv(GridEnv):
    """Reference plant: a fresh 2-D propagator from the oracle matrices on
    every step, whether the load comes from a schedule or the live process."""

    def _stepper_for(self, r_load):
        return oracle_stepper(self.params, r_load)

    def _scheduled_stepper(self, k):
        return oracle_stepper(self.params, float(self._load_schedule[k])), None


def assert_lockstep(env: GridEnv, ref: GridEnv, steps: int, k0: int = 0) -> None:
    """Step both plants with the same actions; every output byte-equal."""
    for k in range(k0, k0 + steps):
        # Closed loop, so a plant that drifts apart also changes the actions.
        v = env.measurements()["v"]
        u = np.clip(0.5 * np.sin(np.array([1.0, 2.0, 3.0]) * k / 97.0) - 1e-3 * v, -1.0, 1.0)
        rp = u * 0.5
        o1, r1, t1, i1 = env.step(u, raw_p=rp)
        o2, r2, t2, i2 = ref.step(u, raw_p=rp)
        assert o1.tobytes() == o2.tobytes(), k
        assert r1 == r2 and t1 == t2 and i1["r_load"] == i2["r_load"], k
        assert i1["limit_violation"] == i2["limit_violation"], k
        assert env.plant_state.tobytes() == ref.plant_state.tobytes(), k
        assert env.r_load == ref.r_load, k


class TestStackedPropagators:
    def test_stacked_slices_equal_2d_builds(self):
        p = GridParams()
        rng = derive_rng(40, 0)
        drawn = rng.uniform(14.0, 200.0, size=1000)
        loads = np.concatenate([[14.0, 200.0], drawn, drawn[:50], [14.0, 200.0, 14.0]])
        a = np.stack([analytic_matrices(p, r)[0] for r in loads])
        b = analytic_matrices(p, 50.0)[1]
        stacked = LtiStepper(a, b, np.zeros(6), p.dt, p.substeps)
        assert stacked.m_per.shape == (len(loads), 6, 6)
        x = rng.standard_normal(6) * 50.0
        u = rng.standard_normal(3) * 100.0
        for j, r in enumerate(loads):
            single = oracle_stepper(p, r)
            assert stacked.m_per[j].tobytes() == single.m_per.tobytes(), r
            assert stacked.n_per[j].tobytes() == single.n_per.tobytes(), r
            assert stacked.propagate(x, u, j).tobytes() == single.propagate(x, u).tobytes(), r

    @pytest.mark.parametrize("case", ["steady", "profile"])
    def test_scheduled_rollout_equals_per_step_builds(self, case):
        if case == "steady":
            series = gen_steadystate_testcase("grid", seed=41, segments=12, segment_length=250).payload
        else:
            series = gen_grid_testcase(seed=42, steps=3000).payload
        assert len(series) == 3000 > 10 * SCHEDULE_BLOCK
        env, ref = GridEnv(GridParams(), seed=43), FreshBuildGridEnv(GridParams(), seed=43)
        for e in (env, ref):
            e.set_load_schedule(series)
        o1, o2 = env.reset(seed=43), ref.reset(seed=43)
        assert o1.tobytes() == o2.tobytes()
        assert_lockstep(env, ref, 3000)
        # A second episode on the same schedule reuses no stale block.
        env.reset(seed=44)
        ref.reset(seed=44)
        assert_lockstep(env, ref, 600)

    def test_restore_and_schedule_swaps_continue_bit_exact(self):
        p = GridParams()
        first = gen_grid_testcase(seed=45, steps=2000).payload
        second = gen_steadystate_testcase("grid", seed=46, segments=4, segment_length=500).payload
        src, ref = GridEnv(p, seed=47), FreshBuildGridEnv(p, seed=47)
        for e in (src, ref):
            e.set_load_schedule(first)
            e.reset(seed=47)
        assert_lockstep(src, ref, 300)
        state = src.state_dict()
        assert state["step_in_episode"] % SCHEDULE_BLOCK != 0

        # Restored into a fresh env at step 300, mid-block for the source.
        env = GridEnv(p, seed=48)
        env.set_load_schedule(first)
        env.reset(seed=48)
        env.step(np.zeros(3))  # leaves a block keyed at step 0 behind
        env.load_state_dict(state)
        assert env.r_load == ref.r_load
        assert_lockstep(env, ref, 400, k0=300)

        # A new schedule mid-episode: steps 700.. read the second series.
        for e in (env, ref):
            e.set_load_schedule(second)
        assert_lockstep(env, ref, 600, k0=700)
        assert env.r_load == second[1299]

        # Back to the live load process mid-episode.
        for e in (env, ref):
            e.set_load_schedule(None)
        assert_lockstep(env, ref, 300, k0=1300)
