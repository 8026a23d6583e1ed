"""The episode core both plants share (envs.base.PlantEnv): the action
contract, the terminal rule, the snapshot and read-only measurements."""

from __future__ import annotations

import numpy as np
import pytest

from secrl import ConfigurationError, EnvironmentFault
from secrl.envs.grid import GridEnv, GridParams, seeded_load_series
from secrl.envs.motor import MotorEnv, MotorParams
from secrl.seeding import derive_rng

PLANTS = {
    "grid": (lambda **kw: GridEnv(GridParams(), seed=3, **kw), 6),
    "motor": (lambda **kw: MotorEnv(MotorParams(), seed=3, **kw), 2),
}


def _schedule(env, steps=50):
    if isinstance(env, GridEnv):
        env.set_load_schedule(seeded_load_series(4, steps, env.params.dt))
    else:
        env.set_reference_schedule(derive_rng(4, 0).uniform(-10.0, 10.0, size=(steps, 2)))


@pytest.mark.parametrize("name", PLANTS)
def test_action_contract_messages_name_the_plant(name):
    make, _ = PLANTS[name]
    env = make()
    m = env.action_dim
    with pytest.raises(ConfigurationError,
                       match=rf"^{name} action must have shape \({m},\), got \({m + 1},\)$"):
        env.step(np.zeros(m + 1))
    with pytest.raises(ConfigurationError, match=r"^action outside \[-1, 1\]"):
        env.step(np.full(m, 1.0 + 1e-6))
    assert env._step_in_episode == 0   # refused actions change nothing
    env.step(np.full(m, 1.0 + 1e-10))  # inside the tolerance, clipped
    assert env._pending_u.tolist() == [1.0] * m


@pytest.mark.parametrize("name", PLANTS)
def test_non_finite_state_and_terminal_rule(name):
    make, n = PLANTS[name]
    env = make()
    env.plant_state = np.full(n, np.inf)
    with np.errstate(invalid="ignore"), pytest.raises(
            EnvironmentFault, match=f"^{name} plant state became non-finite$"):
        env.step(np.zeros(env.action_dim))

    env = make(terminate_on_violation=True)
    env.plant_state = np.full(n, 1e4)
    _, _, terminal, info = env.step(np.zeros(env.action_dim))
    assert terminal is True and info["limit_violation"] is True
    with pytest.raises(EnvironmentFault, match="terminal environment; reset first"):
        env.step(np.zeros(env.action_dim))
    env.reset()
    _, _, terminal, info = env.step(np.zeros(env.action_dim))
    assert terminal is False and info["limit_violation"] is False


@pytest.mark.parametrize("name", PLANTS)
def test_exhausted_schedule_is_an_environment_fault(name):
    make, _ = PLANTS[name]
    env = make()
    _schedule(env, steps=3)
    env.reset()
    for _ in range(3):
        env.step(np.zeros(env.action_dim))
    with pytest.raises(EnvironmentFault, match="schedule exhausted"):
        env.step(np.zeros(env.action_dim))


@pytest.mark.parametrize("name", PLANTS)
def test_snapshot_core_comes_first_and_restores(name):
    make, _ = PLANTS[name]
    env = make()
    for k in range(7):
        env.step(np.full(env.action_dim, 0.1 * (k % 3)))
    state = env.state_dict()
    assert list(state)[:5] == ["x", "pending_u", "hist", "step_in_episode", "terminal"]
    twin = make()
    twin.load_state_dict(state)
    u = np.full(env.action_dim, -0.3)
    a, b = env.step(u), twin.step(u)
    assert a[0].tobytes() == b[0].tobytes() and a[1] == b[1]
    assert env.plant_state.tobytes() == twin.plant_state.tobytes()


@pytest.mark.parametrize("scheduled", [False, True])
@pytest.mark.parametrize("name", PLANTS)
def test_measurements_are_read_only(name, scheduled):
    make, _ = PLANTS[name]
    env = make()
    if scheduled:
        _schedule(env)
    env.reset()
    for stepped in (False, True):
        if stepped:
            env.step(np.full(env.action_dim, 0.2))
        meas = env.measurements()
        for key, value in meas.items():
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0.0
            assert np.isfinite(value).all(), key
    # Not a copy: the values are the plant's current ones.
    if name == "motor":
        assert np.array_equal(meas["i"], env.plant_state)


@pytest.mark.parametrize("scheduled", [False, True])
def test_lockstep_measurements_are_read_only(scheduled):
    env = GridEnv(GridParams(), seed=5)
    if scheduled:
        _schedule(env)
    env.reset()
    env.lockstep(4)
    env.advance(np.zeros((4, 3)))
    meas = env.measurements()
    assert meas["v"].shape == meas["i"].shape == (4, 3)
    for key in ("v", "i", "ref"):
        with pytest.raises(ValueError, match="read-only"):
            meas[key][0] = 1.0
