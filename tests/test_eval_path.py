"""The lean evaluation step against the full step path it replaced.

rollout steps the plant with no task reward and, per policy, either no
observation (controllers) or no measurements (agents); agents run the
actor without a forward cache.  The reference rollout kept here steps the
full SecActionWrapper.step path, rewards and observations computed and the
measurements handed to every policy.  Trajectories, metric rows and the
plant state left behind must be equal byte for byte, for every evaluation
job of the steady-state comparison.
"""

from __future__ import annotations

import numpy as np
import pytest

from secrl.baselines.grid_cascade import GridCascadePolicy
from secrl.baselines.pi import MotorPiPolicy
from secrl.config import parse_config
from secrl.envs.grid import GridEnv, GridParams
from secrl.envs.motor import MotorEnv, MotorParams
from secrl.evaluation import experiment
from secrl.evaluation.experiment import (
    AgentPolicy,
    ControllerPolicy,
    build_eval_env,
    evaluate_policy,
    rollout,
)
from secrl.evaluation.metrics import Trajectory
from secrl.evaluation.testcases import CASE_PLANT, gen_grid_testcase, gen_steadystate_testcase
from secrl.nn.mlp import LINEAR, TANH, mlp_forward, mlp_init
from secrl.sec import SecActionWrapper
from secrl.seeding import derive_rng

GRID_KEYS = {"task_reward", "v_meas", "i_meas", "v_ref", "r_load", "limit_violation"}
MOTOR_KEYS = {"task_reward", "i_meas", "i_ref", "limit_violation"}


def full_rollout(env, policy, case, seed: int) -> Trajectory:
    """rollout as it was before the lean step: every step computes the
    reward and the observation, and every policy gets the measurements."""
    plant = CASE_PLANT[case.kind]
    plant.set_schedule(env, case.payload)
    t_i, t_aw = policy.sec_params or (None, None)
    wrapped = SecActionWrapper(env, t_i, t_aw)
    obs = wrapped.reset(seed=seed)
    policy.reset()
    n = case.duration
    d = len(env.measurements()["ref"])
    reference, measured = np.empty((n, d)), np.empty((n, d))
    raws = np.empty((n, wrapped.action_dim))
    applied = np.empty((n, env.action_dim))
    integ = np.empty((n, env.action_dim)) if wrapped.state is not None else None
    violations = np.zeros(n)
    for k in range(n):
        u_raw = policy.act(obs, env.measurements())
        obs, reward, terminal, info = wrapped.step(u_raw)
        assert type(reward) is float and obs.shape == (env.obs_dim,)
        raws[k] = u_raw
        reference[k] = info[plant.ref_key]
        measured[k] = info[plant.meas_key]
        applied[k] = info["applied_action"]
        if integ is not None:
            integ[k] = info["integrator_state"]
        violations[k] = float(info["limit_violation"])
        assert not terminal
    return Trajectory(kind=plant.name, limit=getattr(env.params, plant.limit),
                      reference=reference, measured=measured, raw_action=raws,
                      applied_action=applied, integrator=integ, violations=violations)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _cfg():
    # Small actors whose commands saturate now and then, so the SEC
    # anti-windup and the action clip both engage.
    return parse_config(None, {"agent.actor.units": 16, "agent.actor.layers": 2,
                               "experiment.segments": 2, "experiment.segment_length": 400})


def _actor(env, width: int, seed: int):
    return mlp_init([env.obs_dim, 16, 16, width], 0.2, TANH, 1.5, 1.0, derive_rng(seed, 0))


def _jobs():
    """The six jobs of the steady-state comparison, and the tuned-cascade
    job on a grid load profile: (name, policy, case)."""
    cfg = _cfg()
    jobs = []
    for plant in ("grid", "motor"):
        env = build_eval_env(cfg, plant)
        m = env.action_dim
        radius = cfg["env.motor.reference_radius"] * cfg["env.motor.i_lim"]
        case = gen_steadystate_testcase(plant, 41 if plant == "grid" else 42, 2, 400, radius)
        jobs.append((f"{plant}-ddpg", AgentPolicy(_actor(env, m, 43), m), case))
        jobs.append((f"{plant}-sec-ddpg", AgentPolicy(_actor(env, 2 * m, 44), m), case))
        controller = (GridCascadePolicy(cfg.grid_params()) if plant == "grid"
                      else MotorPiPolicy(cfg.motor_params()))
        jobs.append((f"{plant}-pi", ControllerPolicy(controller), case))
    jobs.append(("grid-pi-profile", ControllerPolicy(GridCascadePolicy(cfg.grid_params())),
                 gen_grid_testcase(45, 1500)))
    return cfg, jobs


CFG, JOBS = _jobs()


@pytest.mark.parametrize("name, policy, case", JOBS, ids=[j[0] for j in JOBS])
def test_lean_rollout_equals_full_step_path(name, policy, case):
    plant = CASE_PLANT[case.kind].name
    env, env_full = build_eval_env(CFG, plant), build_eval_env(CFG, plant)
    traj = rollout(env, policy, case, seed=7)
    ref = full_rollout(env_full, policy, case, seed=7)
    for field in ("reference", "measured", "raw_action", "applied_action", "violations"):
        assert _same(getattr(traj, field), getattr(ref, field)), field
    assert (traj.integrator is None) == (ref.integrator is None) == ("sec" not in name)
    if traj.integrator is not None:
        assert _same(traj.integrator, ref.integrator)
        assert np.abs(traj.applied_action).max() == 1.0   # anti-windup engaged
    # The plant, its history ring and its random streams end in the same state.
    state, state_full = env.state_dict(), env_full.state_dict()
    assert state.keys() == state_full.keys()
    for key in state:
        if isinstance(state[key], np.ndarray):
            assert _same(state[key], state_full[key]), key
        else:
            assert state[key] == state_full[key], key


@pytest.mark.parametrize("name, policy, case", JOBS, ids=[j[0] for j in JOBS])
def test_lean_metric_rows_equal_full_step_path(name, policy, case, monkeypatch):
    rows = evaluate_policy(CFG, policy, [case], run_seed=3)
    monkeypatch.setattr(experiment, "rollout", full_rollout)
    rows_full = evaluate_policy(CFG, policy, [case], run_seed=3)
    assert len(rows) == len(rows_full) > (1 if case.segment_length else 0)
    for row, row_full in zip(rows, rows_full):
        assert row.keys() == row_full.keys()
        assert row["metric_name"] == row_full["metric_name"]
        assert type(row["value"]) is type(row_full["value"]) is float
        assert _same(row["value"], row_full["value"]), row["metric_name"]


@pytest.mark.parametrize("batch", [1, 261])
@pytest.mark.parametrize("activation", [TANH, LINEAR])
def test_cache_free_forward_equals_cached(batch, activation):
    params = mlp_init([33, 25, 25, 6], 0.208, activation, 1.0, 1.0, derive_rng(5, 0))
    x = derive_rng(6, 0).standard_normal((batch, 33))
    for inp in ((x[0], x[:1]) if batch == 1 else (x,)):
        out, cache = mlp_forward(params, inp)
        lean, none = mlp_forward(params, inp, cache=False)
        assert none is None and cache is not None and len(cache.inputs) == 3
        assert _same(lean, out)


def _info_keys(env, wrapped_args, **step_kwargs):
    wrapped = SecActionWrapper(env, *wrapped_args)
    wrapped.reset(seed=1)
    u = np.full(wrapped.action_dim, 0.3)
    obs, reward, _, info = wrapped.step(u, **step_kwargs)
    _, _, _, env_info = env.step(np.full(env.action_dim, 0.1), **step_kwargs)
    return obs, reward, set(info), set(env_info), info, env_info


@pytest.mark.parametrize("env_cls, params, keys", [
    (GridEnv, GridParams(), GRID_KEYS), (MotorEnv, MotorParams(), MOTOR_KEYS)])
@pytest.mark.parametrize("sec", [False, True])
def test_step_info_keys(env_cls, params, keys, sec):
    added = {"applied_action", "integrator_state"} if sec else {"applied_action"}
    sec_args = (0.31, 0.66) if sec else ()
    # The training path: every key, a float reward and an observation.
    obs, reward, wrapped_keys, env_keys, info, env_info = _info_keys(
        env_cls(params, seed=2), sec_args)
    assert env_keys == keys and wrapped_keys == keys | added
    assert type(reward) is float and info["task_reward"] == reward
    assert type(env_info["task_reward"]) is float and obs is not None
    # The lean path: the same keys, with None for the reward and observation.
    obs, reward, wrapped_keys, env_keys, info, env_info = _info_keys(
        env_cls(params, seed=2), sec_args, scored=False, observed=False)
    assert env_keys == keys and wrapped_keys == keys | added
    assert obs is reward is info["task_reward"] is env_info["task_reward"] is None


def test_motor_schedule_rows_are_read_only():
    series = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    env = MotorEnv(MotorParams(), seed=3)
    env.set_reference_schedule(series)
    env.reset()
    _, _, _, info = env.step(np.zeros(2))
    assert _same(info["i_ref"], series[0])   # step k applies row k
    with pytest.raises(ValueError):
        info["i_ref"][0] = 0.0
    series[2, 0] = 7.0   # the caller's own array stays writable
