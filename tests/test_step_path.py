"""The per-step control path against reference formulas kept in this file.

The references are the straightforward forms of each step: np.clip,
np.concatenate of separately normalized feature blocks, one noise draw per
measured quantity, np.any/np.sum, np.atleast_1d.  The package computes the
same operations with fewer numpy calls; every output must stay equal byte
for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from secrl import ConfigurationError
from secrl.baselines.pi import PiController
from secrl.envs.grid import GridEnv, GridParams, seeded_load_series
from secrl.envs.motor import MotorEnv, MotorParams
from secrl.evaluation.experiment import AgentPolicy
from secrl.nn.mlp import (
    LINEAR,
    TANH,
    MlpParams,
    layer_views,
    mlp_backward,
    mlp_forward,
    mlp_init,
)
from secrl.sec import SecState, sec_apply
from secrl.seeding import STREAM_NOISE, derive_rng

STEPS = 2000


class RefGridEnv(GridEnv):
    """GridEnv with the reference forms of the measurement, the feature map
    and the step; propagation and load handling are the package's."""

    def _measure(self):
        p = self.params
        v = self._x[..., 3:6].copy()
        i = self._x[..., 0:3].copy()
        if p.noise_v > 0:
            v += p.noise_v * self._rng_noise.standard_normal(3)
        if p.noise_i > 0:
            i += p.noise_i * self._rng_noise.standard_normal(3)
        return v, i

    def _features(self, v_meas, i_meas, raw_p, raw_i):
        p = self.params
        err = 0.5 * (self._v_ref - v_meas)
        return np.concatenate([
            i_meas / p.i_lim, v_meas / p.v_lim, self._v_ref / p.v_lim, err / p.v_lim,
            raw_p, raw_i, self._hist.flat() / p.v_lim,
        ])

    def advance(self, u):
        u = np.asarray(u, dtype=np.float64)
        if np.any(np.abs(u) > 1.0 + 1e-9):
            raise ConfigurationError(f"action outside [-1, 1]: {u}")
        u = np.clip(u, -1.0, 1.0)
        p = self.params
        v_inverter = self._pending_u * (p.v_dc / 2.0)
        if self._load_schedule is not None:
            k = self._step_in_episode
            self.r_load = float(self._load_schedule[k])
            stepper, j = self._scheduled_stepper(k)
            self._x = stepper.propagate(self._x, v_inverter, j)
        else:
            self.r_load = self._load.step(self._rng_load)
            self._x = self._stepper_for(self.r_load).propagate(self._x, v_inverter)
        v_meas, i_meas = self._measure()
        ratio = np.minimum(np.abs(self._v_ref - v_meas) / p.v_lim, 1.0)
        reward = -(1.0 - self.gamma) / 3.0 * np.sum(np.sqrt(ratio), axis=-1)
        reward = float(reward) if reward.ndim == 0 else reward
        violation = ((np.abs(self._x[..., 3:6]) > p.v_lim).any(axis=-1)
                     | (np.abs(self._x[..., 0:3]) > p.i_lim).any(axis=-1))
        self._pending_u = u
        self._step_in_episode += 1
        self._last_meas = (v_meas, i_meas)
        return v_meas, i_meas, reward, violation

    def step(self, u, raw_p=None, raw_i=None):
        v_meas, i_meas, reward, violation = self.advance(u)
        violation = bool(violation)
        rp = np.zeros(3) if raw_p is None else np.asarray(raw_p, dtype=np.float64)
        ri = np.zeros(3) if raw_i is None else np.asarray(raw_i, dtype=np.float64)
        obs = self._features(v_meas, i_meas, rp, ri)
        self._hist.push(v_meas)
        info = {"task_reward": reward, "v_meas": v_meas, "i_meas": i_meas,
                "v_ref": self._v_ref, "r_load": self.r_load, "limit_violation": violation}
        return obs, reward, False, info


class RefMotorEnv(MotorEnv):
    """MotorEnv with the reference forms of the feature map and the step."""

    def _features(self, i_meas, raw_p, raw_i):
        p = self.params
        err = 0.5 * (self.i_ref - i_meas)
        return np.concatenate([
            i_meas / p.i_lim, self.i_ref / p.i_lim, err / p.i_lim,
            raw_p, raw_i, self._hist.flat() / p.i_lim,
        ])

    def step(self, u, raw_p=None, raw_i=None):
        u = np.asarray(u, dtype=np.float64)
        if np.any(np.abs(u) > 1.0 + 1e-9):
            raise ConfigurationError(f"action outside [-1, 1]: {u}")
        u = np.clip(u, -1.0, 1.0)
        p = self.params
        if self._ref_schedule is not None:
            self.i_ref = self._ref_schedule[self._step_in_episode].copy()
        else:
            self.i_ref = self._refgen.step(self.i_ref, self._rng_env)
        self._x = self._stepper.propagate(self._x, self._pending_u * (p.v_dc / 2.0))
        i_meas = self._x.copy()
        ratio = np.minimum(np.abs(self.i_ref - i_meas) / p.i_lim, 1.0)
        reward = float(-(1.0 - self.gamma) / 2.0 * np.sum(np.sqrt(ratio)))
        violation = bool(np.any(np.abs(self._x) > p.i_lim))
        rp = np.zeros(2) if raw_p is None else np.asarray(raw_p, dtype=np.float64)
        ri = np.zeros(2) if raw_i is None else np.asarray(raw_i, dtype=np.float64)
        obs = self._features(i_meas, rp, ri)
        self._hist.push(i_meas)
        self._pending_u = u.copy()
        self._step_in_episode += 1
        info = {"task_reward": reward, "i_meas": i_meas, "i_ref": self.i_ref.copy(),
                "limit_violation": violation}
        return obs, reward, False, info


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _actions(seed: int, m: int, steps: int) -> np.ndarray:
    """Commands that swing the plant past its limits and back, with exact
    bounds and signed zeros mixed in."""
    rng = derive_rng(seed, 0)
    u = rng.uniform(-1.0, 1.0, size=(steps, m)) * rng.uniform(0.0, 1.0, size=(steps, 1))
    u[::7] = 0.0
    u[3::7] = -0.0
    u[5::11, 0] = 1.0
    u[6::11, -1] = -1.0
    return u


def _raw_blocks(seed: int, m: int, steps: int):
    rng = derive_rng(seed, 1)
    return rng.uniform(-1.0, 1.0, size=(steps, m)), rng.uniform(-1.0, 1.0, size=(steps, m))


def _assert_equal_steps(env, ref, actions, raw_p, raw_i, keys):
    assert _same(env.reset(seed=env._seed), ref.reset(seed=ref._seed))
    violations = 0
    for k, u in enumerate(actions):
        rp = None if k % 5 == 0 else raw_p[k]
        ri = None if k % 3 == 0 else raw_i[k]
        obs, r, term, info = env.step(u, raw_p=rp, raw_i=ri)
        obs_r, r_r, _, info_r = ref.step(u.copy(), raw_p=rp, raw_i=ri)
        assert _same(obs, obs_r), k
        assert type(r) is float and r == r_r and _same(r, r_r), k
        assert not term
        assert set(info) == set(info_r) == set(keys), k
        for key in keys:
            assert _same(info[key], info_r[key]), (k, key)
        assert type(info["limit_violation"]) is bool
        violations += info["limit_violation"]
        assert _same(env.plant_state, ref.plant_state), k
        assert _same(env._pending_u, ref._pending_u), k
    meas, meas_r = env.measurements(), ref.measurements()
    for key in meas:
        assert _same(meas[key], meas_r[key]), key
    return violations


GRID_KEYS = ("task_reward", "v_meas", "i_meas", "v_ref", "r_load", "limit_violation")
MOTOR_KEYS = ("task_reward", "i_meas", "i_ref", "limit_violation")


@pytest.mark.parametrize("history_length", [5, 0])
@pytest.mark.parametrize("noise", [(0.25, 0.05), (0.25, 0.0), (0.0, 0.05), (0.0, 0.0)])
@pytest.mark.parametrize("scheduled", [False, True])
def test_grid_steps_equal_reference(history_length, noise, scheduled):
    params = GridParams(history_length=history_length, noise_v=noise[0], noise_i=noise[1])
    env = GridEnv(params, seed=21)
    ref = RefGridEnv(params, seed=21)
    if scheduled:
        series = seeded_load_series(22, STEPS + 1, params.dt)
        env.set_load_schedule(series)
        ref.set_load_schedule(series)
    actions = _actions(23, 3, STEPS)
    raw_p, raw_i = _raw_blocks(24, 3, STEPS)
    violations = _assert_equal_steps(env, ref, actions, raw_p, raw_i, GRID_KEYS)
    assert 0 < violations < STEPS   # both branches of the flag are covered
    assert env.obs_dim == 18 + 3 * history_length


@pytest.mark.parametrize("history_length", [5, 0])
@pytest.mark.parametrize("scheduled", [False, True])
def test_motor_steps_equal_reference(history_length, scheduled):
    params = MotorParams(history_length=history_length, reference_hold_prob=0.9)
    env = MotorEnv(params, seed=31)
    ref = RefMotorEnv(params, seed=31)
    if scheduled:
        series = derive_rng(32, 0).uniform(-15.0, 15.0, size=(STEPS + 1, 2))
        env.set_reference_schedule(series)
        ref.set_reference_schedule(series)
    actions = _actions(33, 2, STEPS)
    raw_p, raw_i = _raw_blocks(34, 2, STEPS)
    violations = _assert_equal_steps(env, ref, actions, raw_p, raw_i, MOTOR_KEYS)
    assert 0 < violations < STEPS
    assert env.obs_dim == 10 + 2 * history_length


def test_lockstep_advance_equals_reference():
    params = GridParams()
    k = 5
    series = seeded_load_series(41, 600, params.dt)
    envs = []
    for cls in (GridEnv, RefGridEnv):
        env = cls(params, gamma=0.0, seed=41)
        env.set_load_schedule(series)
        env.reset(seed=41)
        env.lockstep(k)
        envs.append(env)
    rng = derive_rng(42, 0)
    for step in range(600):
        u = rng.uniform(-1.0, 1.0, size=(k, 3))
        out = envs[0].advance(u)
        out_r = envs[1].advance(u.copy())
        for a, b in zip(out, out_r):
            assert _same(a, b), step
        assert _same(envs[0].plant_state, envs[1].plant_state), step


@pytest.mark.parametrize("make_env", [
    lambda: GridEnv(GridParams(), seed=51),
    lambda: GridEnv(GridParams(history_length=0), seed=51),
    lambda: MotorEnv(MotorParams(), seed=51),
])
def test_consecutive_observations_are_distinct_arrays(make_env):
    # The replay ring stores observations by reference until it copies
    # them; an observation must not change when the next one is made.
    env = make_env()
    obs = [env.reset(seed=51)]
    kept = [obs[0].copy()]
    for _ in range(4):
        obs.append(env.step(np.full(env.action_dim, 0.2))[0])
        kept.append(obs[-1].copy())
    for a, b in zip(obs, obs[1:]):
        assert not np.shares_memory(a, b)
    for o in obs[:-1]:
        o[:] = 99.0
    assert _same(obs[-1], kept[-1])
    assert not np.any(kept[-1] == 99.0)


@pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**40 + 3])
def test_one_six_normal_draw_equals_two_three_draws(seed):
    one, two = derive_rng(seed, STREAM_NOISE), derive_rng(seed, STREAM_NOISE)
    for _ in range(500):
        six = one.standard_normal(6)
        pair = np.concatenate([two.standard_normal(3), two.standard_normal(3)])
        assert _same(six, pair)
    assert one.bit_generator.state == two.bit_generator.state


SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf, 0.5, -0.5, 1.0 + 1e-12,
                    -1.0 - 1e-12, 5e-324, -5e-324])


def test_min_max_clip_equals_np_clip_at_unit_bounds():
    clipped = np.minimum(np.maximum(SPECIAL, -1.0), 1.0)
    assert _same(clipped, np.clip(SPECIAL, -1.0, 1.0))
    assert np.signbit(clipped[1]) and not np.signbit(clipped[0])
    assert np.isnan(clipped[4])


def _ref_sec_apply(u_raw, state):
    m = state.zeta.shape[0]
    u_raw = np.asarray(u_raw, dtype=np.float64)
    u_p, u_i = u_raw[:m], u_raw[m:]
    zeta = state.zeta + state.t_i * u_i
    u_unclipped = u_p + zeta
    u = np.clip(u_unclipped, -1.0, 1.0)
    zeta = zeta + state.t_aw * (u - u_unclipped)
    return u, zeta


def test_sec_apply_equals_reference_and_keeps_its_input():
    rng = derive_rng(61, 0)
    state = SecState.fresh(3, 0.31, 0.66)
    with np.errstate(invalid="ignore"):  # inf - inf in the back-calculation
        for k in range(3000):
            u_raw = rng.uniform(-1.0, 1.0, size=6)
            if k % 50 == 0:  # special values, once the integrator has history
                u_raw[k % 6] = SPECIAL[(k // 50) % len(SPECIAL)]
            zeta_before = state.zeta.copy()
            u, new = sec_apply(u_raw, state)
            u_ref, zeta_ref = _ref_sec_apply(u_raw, state)
            assert _same(u, u_ref) and _same(new.zeta, zeta_ref), k
            assert _same(state.zeta, zeta_before) and new.zeta is not state.zeta
            if not np.isfinite(new.zeta).all():
                new = SecState.fresh(3, 0.31, 0.66)
            state = new
    with pytest.raises(ConfigurationError):
        sec_apply(np.zeros(5), state)
    u, _ = sec_apply([0.1, -0.2, 0.3, 0.0, 0.0, 0.0], state)  # lists still work
    assert u.dtype == np.float64


class RefPi:
    def __init__(self, kp, ki, lo, hi, dt):
        self.kp = np.atleast_1d(np.asarray(kp, dtype=np.float64))
        self.ki = np.atleast_1d(np.asarray(ki, dtype=np.float64))
        self.lo, self.hi, self.dt = float(lo), float(hi), dt
        with np.errstate(divide="ignore", invalid="ignore"):
            self.k_aw = np.where(self.kp > 0, self.ki / np.maximum(self.kp, 1e-30), 0.0)
        self.acc = np.zeros_like(self.kp)

    def step(self, error, feedforward=0.0):
        e = np.atleast_1d(np.asarray(error, dtype=np.float64))
        u_unclipped = self.kp * e + self.acc + feedforward
        u = np.clip(u_unclipped, self.lo, self.hi)
        self.acc = self.acc + self.ki * e * self.dt + self.k_aw * self.dt * (u - u_unclipped)
        return u


@pytest.mark.parametrize("shape", [(), (3,), (4, 3)])
@pytest.mark.parametrize("dt", [1e-4, 2e-4, 5e-5])
def test_pi_step_equals_reference(shape, dt):
    rng = derive_rng(71, 0)
    kp = rng.uniform(0.5, 3.0, size=shape)
    ki = rng.uniform(50.0, 500.0, size=shape)
    pi = PiController(kp, ki, -1.0, 1.0, dt)
    ref = RefPi(kp, ki, -1.0, 1.0, dt)
    for k in range(1500):
        e = rng.uniform(-2.0, 2.0, size=shape)
        if k % 3 == 0:
            e = e.tolist() if shape else float(e)
        ff = rng.uniform(-0.5, 0.5, size=shape) if k % 2 else 0.0
        assert _same(pi.step(e, feedforward=ff), ref.step(e, feedforward=ff)), k
        assert _same(pi.acc, ref.acc), k


def test_agent_act_equals_clipped_forward():
    actor = mlp_init([18, 25, 25, 6], 0.208, TANH, 1.0, 1.0, derive_rng(81, 0))
    policy = AgentPolicy(actor, m=3)
    rng = derive_rng(82, 0)
    for _ in range(200):
        obs = rng.uniform(-3.0, 3.0, size=18)
        raw, _ = mlp_forward(actor, obs)
        assert _same(policy.act(obs, None), np.clip(raw, -1.0, 1.0))


@pytest.mark.parametrize("output_activation", [TANH, LINEAR])
def test_forward_equals_reference_layers(output_activation):
    params = mlp_init([7, 13, 9, 4], 0.3, output_activation, 1.0, 1.0, derive_rng(91, 0))
    x = derive_rng(92, 0).uniform(-2.0, 2.0, size=(64, 7))
    for batch in (x, x[0]):
        out, cache = mlp_forward(params, batch)
        h = np.atleast_2d(batch)
        for j, (w, b) in enumerate(zip(params.weights, params.biases)):
            z = h @ w.T + b
            assert _same(cache.pre_acts[j], z)
            last = j == len(params.weights) - 1
            h = (np.tanh(z) if output_activation == TANH else z) if last \
                else np.maximum(params.beta * z, z)
        assert _same(out, h[0] if batch.ndim == 1 else h)


def test_backward_without_input_grad_keeps_parameter_gradients():
    params = mlp_init([7, 13, 9, 4], 0.3, LINEAR, 1.0, 1.0, derive_rng(93, 0))
    x = derive_rng(94, 0).uniform(-2.0, 2.0, size=(32, 7))
    cot = derive_rng(95, 0).uniform(-1.0, 1.0, size=(32, 4))
    _, cache = mlp_forward(params, x)
    grads, x_cot = mlp_backward(params, cache, cot)
    skipped, none = mlp_backward(params, cache, cot, input_grad=False)
    assert none is None and x_cot.shape == (32, 7)
    assert _same(skipped, grads)


@pytest.mark.parametrize("beta", [1.5, 2.0, np.inf, np.nan, 0.0, -0.1])
def test_hidden_slope_outside_unit_interval_is_rejected(beta):
    with pytest.raises(ConfigurationError, match="beta"):
        mlp_init([2, 3, 1], beta, TANH, 1.0, 1.0, derive_rng(0, 0))
    params = MlpParams([2, 3, 1], beta, TANH)
    with pytest.raises(ConfigurationError, match="beta"):
        params.validate()


def test_hidden_slope_of_one_is_accepted():
    params = mlp_init([2, 3, 1], 1.0, LINEAR, 1.0, 1.0, derive_rng(0, 0))
    x = np.array([[-1.0, 2.0], [0.5, -0.25]])
    out, _ = mlp_forward(params, x)
    w0, b0 = params.weights[0], params.biases[0]
    w1, b1 = params.weights[1], params.biases[1]
    assert np.allclose(out, (x @ w0.T + b0) @ w1.T + b1, rtol=1e-15, atol=0)


def test_backward_slope_at_the_kink_is_beta():
    # Hidden units with zero weights and bias sit exactly on the kink z = 0,
    # where the slope is beta by convention.
    params = mlp_init([5, 8, 3], 0.25, LINEAR, 1.0, 1.0, derive_rng(96, 0))
    params.weights[0][:4] = 0.0
    params.biases[0][:4] = 0.0
    x = derive_rng(97, 0).uniform(-2.0, 2.0, size=(16, 5))
    cot = derive_rng(98, 0).uniform(-1.0, 1.0, size=(16, 3))
    _, cache = mlp_forward(params, x)
    assert np.all(cache.pre_acts[0][:, :4] == 0.0)
    grads, x_cot = mlp_backward(params, cache, cot)
    delta = (cot @ params.weights[1]) * np.where(cache.pre_acts[0] > 0.0, 1.0, params.beta)
    assert _same(layer_views(grads, params.layer_sizes)[0][0], delta.T @ x)
    assert _same(x_cot, delta @ params.weights[0])
